"""Exception types shared across the package."""


class GhostdimError(Exception):
    """Base class for all package errors."""


class NonAssociative(GhostdimError):
    """Structure constants fail associativity on some basis triple."""

    def __init__(self, triple, detail=""):
        self.triple = triple
        super().__init__(f"structure constants not associative at basis triple {triple} {detail}".rstrip())


class BadUnit(GhostdimError):
    """Declared unit vector does not act as a two-sided identity."""


class NonSimpleDeclared(GhostdimError):
    """A declared simple module has a proper nonzero submodule, or duplicates another."""


class RingMismatch(GhostdimError):
    """Operands live over different rings."""


class SideMismatch(GhostdimError):
    """A left module was expected (module over the opposite ring) but a right one was given, or vice versa."""


class PdimTooLarge(GhostdimError):
    """rouquier_build precondition failed: the object is not in the requested class."""


class NoSimplesDeclared(GhostdimError):
    """The operation needs a simple-module list and the ring declares none."""


class NoFactorization(GhostdimError):
    """The constructive factorization failed; a precondition must have been violated."""


class ModulusTooLarge(GhostdimError):
    """Sums of products of residues mod m could overflow the exact int64 kernel."""


class ParseError(GhostdimError):
    """A spec file or serialized object could not be parsed."""


class ValidationError(GhostdimError):
    """A parsed object failed an invariant check."""

    def __init__(self, message, where=""):
        self.where = where
        super().__init__(f"{message}" + (f" (at {where})" if where else ""))


class UnknownCommand(GhostdimError):
    """CLI dispatch got a command it does not know."""
