"""Finite rings in two presentations sharing one arithmetic substrate.

A ring here is a free algebra of finite rank over a base Z/m:

* ``zmod`` rings are Z/n itself (rank 1, trivial structure constants);
* ``fp_algebra`` rings are F_p-algebras given by structure constants
  sc[i, j, k] with  b_i * b_j = sum_k sc[i, j, k] b_k  and a unit vector.

Modules over either kind are handled uniformly in :mod:`ghostdim.modules`:
a module is a mixed-order abelian group with one action matrix per basis
element.  For Z/n the single action matrix is the identity, so module maps
are just group maps; for F_p-algebras every group has exponent p and the
action matrices carry all the structure.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import BadUnit, NonAssociative, ParseError, ValidationError
from .linalg import check_exact, factorize, parse_int, parse_matrix

DEFAULT_RING_CAP = 2 ** 8
ENUMERATION_CAP = 2 ** 12


@dataclass(frozen=True, eq=False)
class Ring:
    """A validated finite ring handle.  Immutable once built."""

    name: str
    backend: str                 # "zmod" | "fp_algebra"
    modulus: int                 # the base arithmetic m (n, or the prime p)
    rank: int                    # basis size over the base
    sc: np.ndarray               # rank x rank x rank structure constants mod m
    unit: np.ndarray             # rank vector
    simples: tuple = None        # tuple of FgModule or None

    @property
    def size(self):
        return self.modulus ** self.rank

    def key(self):
        return (self.modulus, self.rank, self.sc.tobytes(), self.unit.tobytes())

    def same_ring(self, other):
        return self.key() == other.key()

    def right_mult(self, t):
        """Matrix of right multiplication by basis element t on the regular module."""
        # (x . b_t)_k = sum_i sc[i, t, k] x_i
        return self.sc[:, t, :].T % self.modulus

    def regular_actions(self):
        return tuple(self.right_mult(t) for t in range(self.rank))

    def opposite(self):
        """The opposite ring: structure constants transposed in the first two slots."""
        cached = getattr(self, "_opposite", None)
        if cached is not None:
            return cached
        op_name = self.name[:-3] if self.name.endswith("^op") else self.name + "^op"
        ring = Ring(
            name=op_name,
            backend=self.backend,
            modulus=self.modulus,
            rank=self.rank,
            sc=np.ascontiguousarray(self.sc.transpose(1, 0, 2)) % self.modulus,
            unit=self.unit.copy(),
            simples=None,
        )
        _validate_ring(ring)
        if self.simples is not None:
            from .modules import FgModule

            # transposed actions reverse products: a module over the opposite ring
            duals = tuple(
                FgModule(
                    ring=ring,
                    orders=s.orders,
                    actions=tuple(a.T % self.modulus for a in s.actions),
                    label=(s.label or f"S{i + 1}") + "*",
                )
                for i, s in enumerate(self.simples)
            )
            object.__setattr__(ring, "simples", duals)
        object.__setattr__(self, "_opposite", ring)
        return ring

    def base_ring(self):
        """Z/m as a ring; tensor complexes live over it."""
        if self.rank == 1:
            return self
        cached = getattr(self, "_base", None)
        if cached is None:
            cached = zmod(self.modulus, name=f"z{self.modulus}")
            object.__setattr__(self, "_base", cached)
        return cached

    def is_commutative(self):
        return bool(np.array_equal(self.sc, self.sc.transpose(1, 0, 2) % self.modulus))

    def describe(self):
        out = {
            "name": self.name,
            "backend": self.backend,
            "size": self.size,
            "modulus": self.modulus,
            "rank": self.rank,
            "commutative": self.is_commutative(),
        }
        if self.simples is not None:
            out["simples"] = [{"label": s.label, "orders": list(s.orders)} for s in self.simples]
        return out

    def __repr__(self):
        return f"Ring({self.name})"


@dataclass
class RingSpec:
    """Raw, unvalidated ring data as read from a spec file or builder."""

    name: str
    backend: str
    n: int = None
    p: int = None
    dim: int = None
    structure_constants: list = None
    unit: list = None
    simples: list = None         # list of module descriptors
    allow_large: bool = False


def _validate_ring(ring):
    m, r = ring.modulus, ring.rank
    sc, unit = ring.sc, ring.unit
    if sc.shape != (r, r, r):
        raise ValidationError(f"structure constants must be {r}x{r}x{r}, got {sc.shape}")
    if unit.shape != (r,):
        raise ValidationError(f"unit must be a {r}-vector")
    # associativity: (b_i b_j) b_k == b_i (b_j b_k), expanded over the basis
    lhs = np.einsum("ijt,tkl->ijkl", sc, sc) % m
    rhs = np.einsum("jkt,itl->ijkl", sc, sc) % m
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise NonAssociative(tuple(int(x) for x in bad[:3]))
    left = np.einsum("i,ijk->jk", unit, sc) % m
    right = np.einsum("j,ijk->ik", unit, sc) % m
    ident = np.eye(r, dtype=np.int64)
    if not np.array_equal(left, ident) or not np.array_equal(right, ident):
        raise BadUnit(f"declared unit of {ring.name} is not a two-sided identity")


def make_ring(spec):
    """Validate a RingSpec and return a Ring with its simple-module list.

    A trust boundary: the ring axioms and each declared simple (make_module
    validates it as a module) are checked in full here.
    """
    if spec.backend == "zmod":
        if spec.n is None or spec.n < 2:
            raise ValidationError("zmod backend needs n >= 2")
        ring = zmod(spec.n, name=spec.name, allow_large=spec.allow_large)
        return ring
    if spec.backend != "fp_algebra":
        raise ValidationError(f"unknown backend {spec.backend!r}")
    if spec.dim is None or spec.dim < 1:
        raise ValidationError("fp_algebra needs dim >= 1")
    size = spec.p ** spec.dim
    if size > DEFAULT_RING_CAP and not spec.allow_large:
        raise ValidationError(f"|R| = {size} exceeds the default cap {DEFAULT_RING_CAP}")
    # Both bounds come before the trial division, which takes sqrt(p) steps.
    check_exact(spec.p, 2)
    if factorize(spec.p) != {spec.p: 1}:
        raise ValidationError(f"fp_algebra base {spec.p} is not prime")
    sc = np.asarray(spec.structure_constants, dtype=np.int64) % spec.p
    unit = np.asarray(spec.unit, dtype=np.int64) % spec.p
    ring = Ring(name=spec.name, backend="fp_algebra", modulus=spec.p, rank=spec.dim,
                sc=sc, unit=unit, simples=None)
    _validate_ring(ring)
    if spec.simples is not None:
        from .modules import make_module, validate_simple_list

        mods = tuple(make_module(ring, d) for d in spec.simples)
        validate_simple_list(ring, mods)
        object.__setattr__(ring, "simples", mods)
    return ring


def zmod(n, name=None, allow_large=False):
    """Z/n with its standard simple list Z/p for each prime p | n."""
    if n < 2:
        raise ValidationError("zmod needs n >= 2")
    if n > DEFAULT_RING_CAP and not allow_large:
        raise ValidationError(f"|R| = {n} exceeds the default cap {DEFAULT_RING_CAP}")
    # Before the factoring below, which takes sqrt(n) steps.
    check_exact(n, 2)
    ring = Ring(
        name=name or f"zmod:{n}",
        backend="zmod",
        modulus=n,
        rank=1,
        sc=np.ones((1, 1, 1), dtype=np.int64),
        unit=np.ones(1, dtype=np.int64),
        simples=None,
    )
    from .modules import FgModule

    # Z/p with the identity action, one per prime p | n
    simples = tuple(
        FgModule(ring=ring, orders=(p,), actions=(np.ones((1, 1), dtype=np.int64),), label=f"Z/{p}")
        for p in factorize(n)
    )
    object.__setattr__(ring, "simples", simples)
    return ring


# ---------------------------------------------------------------------------
# Builtin corpus
# ---------------------------------------------------------------------------

def _field(p, name):
    return zmod(p, name=name)


def _dual_numbers(p, name):
    # k[x]/(x^2), basis {1, x}
    sc = np.zeros((2, 2, 2), dtype=np.int64)
    sc[0, 0, 0] = 1
    sc[0, 1, 1] = 1
    sc[1, 0, 1] = 1
    return make_ring(RingSpec(
        name=name, backend="fp_algebra", p=p, dim=2,
        structure_constants=sc.tolist(), unit=[1, 0],
        simples=[{"dim": 1, "actions": [[[1]], [[0]]], "label": "k"}],
    ))


def _pair_algebra(basis, p, name):
    """The F_p-algebra on an ordered basis of pairs (i, j), closed under
    e_ij e_kl = delta_jk e_il, with unit sum_v e_vv and simples S1, S2, ...:
    on S_(v+1) e_vv acts as 1 and every other basis element as 0."""
    index = {b: t for t, b in enumerate(basis)}
    dim = len(basis)
    sc = np.zeros((dim, dim, dim), dtype=np.int64)
    for (i, j), a in index.items():
        for (k, l), b in index.items():
            if j == k:
                sc[a, b, index[(i, l)]] = 1
    idempotents = [i for i, j in basis if i == j]
    simples = [{"dim": 1, "actions": [[[int(b == (v, v))]] for b in basis], "label": f"S{v + 1}"}
               for v in idempotents]
    return make_ring(RingSpec(name=name, backend="fp_algebra", p=p, dim=dim,
                              structure_constants=sc.tolist(), unit=[int(i == j) for i, j in basis],
                              simples=simples))


def _upper_triangular(size, p, name):
    """T_size(F_p): basis e_ij for i <= j, in row-major order."""
    return _pair_algebra([(i, j) for i in range(size) for j in range(i, size)], p, name)


def _linear_quiver_algebra(vertices, p, name):
    """Path algebra of the linear quiver 1 -> 2 -> ... -> n over F_p.

    Basis: all paths (source, target), the lazy paths e_v first.  Products
    concatenate ("first this path, then that one") when the endpoints match.
    """
    lazy = [(v, v) for v in range(vertices)]
    return _pair_algebra(lazy + [(i, j) for i in range(vertices) for j in range(i + 1, vertices)], p, name)


_BUILTIN_FACTORIES = {
    "zmod:2": lambda: zmod(2),
    "zmod:3": lambda: zmod(3),
    "zmod:4": lambda: zmod(4),
    "zmod:6": lambda: zmod(6),
    "zmod:8": lambda: zmod(8),
    "zmod:9": lambda: zmod(9),
    "zmod:12": lambda: zmod(12),
    "f2": lambda: _field(2, "f2"),
    "f3": lambda: _field(3, "f3"),
    "dual:f2": lambda: _dual_numbers(2, "dual:f2"),
    "ut2:f2": lambda: _upper_triangular(2, 2, "ut2:f2"),
    "ut3:f2": lambda: _upper_triangular(3, 2, "ut3:f2"),
    "a2:f2": lambda: _linear_quiver_algebra(2, 2, "a2:f2"),
    "a3:f2": lambda: _linear_quiver_algebra(3, 2, "a3:f2"),
}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_FACTORIES))

_builtin_cache = {}


def builtin_ring(name):
    if name not in _BUILTIN_FACTORIES:
        raise ValidationError(f"unknown builtin ring {name!r}; known: {', '.join(BUILTIN_NAMES)}")
    if name not in _builtin_cache:
        _builtin_cache[name] = _BUILTIN_FACTORIES[name]()
    return _builtin_cache[name]


# ---------------------------------------------------------------------------
# Spec files
# ---------------------------------------------------------------------------

def ring_spec_from_dict(data):
    try:
        backend = data["backend"]
        name = data["name"]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"ring spec missing field: {exc}") from None
    if not isinstance(name, str):
        raise ParseError(f"ring 'name' must be a string, got {name!r}")
    allow_large = data.get("allow_large", False)
    if not isinstance(allow_large, bool):
        raise ParseError(f"ring 'allow_large' must be true or false, got {allow_large!r}")
    if backend == "zmod":
        if "n" not in data:
            raise ParseError("zmod ring spec needs field 'n'")
        return RingSpec(name=name, backend="zmod", n=parse_int(data["n"], "ring 'n'"),
                        allow_large=allow_large)
    if backend == "fp_algebra":
        for f in ("p", "dim", "structure_constants", "unit"):
            if f not in data:
                raise ParseError(f"fp_algebra ring spec needs field '{f}'")
        dim = parse_int(data["dim"], "ring 'dim'")
        scs = data["structure_constants"]
        if not isinstance(scs, list) or len(scs) != dim:
            raise ParseError(f"structure_constants must be a list of {dim} {dim}x{dim} matrices")
        sc = [parse_matrix(c, f"structure_constants[{i}]", dim, dim).tolist()
              for i, c in enumerate(scs)]
        unit = parse_matrix([data["unit"]], "unit", 1, dim)[0].tolist()
        simples = data.get("simples")
        if "simples" in data and not (isinstance(simples, list) and all(isinstance(d, dict) for d in simples)):
            raise ParseError("ring 'simples' must be a list of module descriptors (JSON objects)")
        return RingSpec(
            name=name, backend="fp_algebra", p=parse_int(data["p"], "ring 'p'"), dim=dim,
            structure_constants=sc, unit=unit, simples=simples,
            allow_large=allow_large,
        )
    raise ParseError(f"unknown backend {backend!r}")


def read_json_file(path, what):
    """The JSON value in a file; ParseError if it cannot be read, decoded or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {what} {path}: {exc}") from None


def load_ring_file(path):
    return make_ring(ring_spec_from_dict(read_json_file(path, "ring spec")))


def ring_to_dict(ring):
    if ring.backend == "zmod":
        return {"name": ring.name, "backend": "zmod", "n": ring.modulus}
    out = {
        "name": ring.name,
        "backend": "fp_algebra",
        "p": ring.modulus,
        "dim": ring.rank,
        "structure_constants": ring.sc.tolist(),
        "unit": ring.unit.tolist(),
    }
    if ring.simples:
        from .modules import module_to_descriptor

        out["simples"] = [module_to_descriptor(s) for s in ring.simples]
    return out
