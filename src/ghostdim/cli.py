"""Command-line surface: corpus management, dimension runs, verification suites.

Reports are deterministic: the same (ring, command, bound, seed, window)
produces byte-identical JSON.  Exit codes: 0 for PASS / computed values,
1 for a verification FAIL, 2 for errors.  FAIL reports embed replayable
counterexamples.  Every error, bad input or running out of memory, ends in
one place (_Main.invoke): one `error:` line on stderr and exit 2.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

import click

from .complexes import (
    chain_map_from_dict,
    chain_map_to_dict,
    complex_from_dict,
    complex_to_dict,
    module_complex,
    null_homotopy,
)
from .dimensions import (
    DimReport,
    ghdim_ring,
    rouquier_build,
    standard_battery,
    symmetry_report,
    wdim_ring,
)
from .errors import GhostdimError, ParseError, UnknownCommand
from .ghosts import (
    factor_through_projective,
    pdim_complex,
    random_chain_map,
    universal_ghost,
)
from .linalg import parse_int
from .modules import free_module, is_projective
from .rings import (
    BUILTIN_NAMES,
    builtin_ring,
    load_ring_file,
    make_ring,
    read_json_file,
    ring_spec_from_dict,
    ring_to_dict,
)
from .tensor_ss import fdim_via_ss

CORPUS_ENV = "GHOSTDIM_CORPUS_DIR"


def resolve_ring(selector):
    """Builtin name, a file path, or a name resolved in GHOSTDIM_CORPUS_DIR."""
    if selector in BUILTIN_NAMES:
        return builtin_ring(selector)
    if os.path.exists(selector):
        return load_ring_file(selector)
    corpus = os.environ.get(CORPUS_ENV)
    if corpus:
        candidate = os.path.join(corpus, selector + ".json")
        if os.path.exists(candidate):
            return load_ring_file(candidate)
    raise ParseError(
        f"unknown ring {selector!r}: not a builtin ({', '.join(BUILTIN_NAMES)}), "
        f"not a file, and not found under ${CORPUS_ENV}"
    )


def emit(data, output, exit_code=0):
    if output == "json":
        click.echo(json.dumps(data, sort_keys=True, indent=2))
    else:
        _emit_text(data)
    sys.exit(exit_code)


def _emit_text(data, indent=0):
    pad = "  " * indent
    if isinstance(data, dict):
        for key in data:
            val = data[key]
            if isinstance(val, (dict, list)) and val and not _is_flat(val):
                click.echo(f"{pad}{key}:")
                _emit_text(val, indent + 1)
            else:
                click.echo(f"{pad}{key}: {val}")
    elif isinstance(data, list):
        for item in data:
            if isinstance(item, (dict, list)):
                _emit_text(item, indent)
                click.echo("")
            else:
                click.echo(f"{pad}- {item}")
    else:
        click.echo(f"{pad}{data}")


def _is_flat(val):
    if isinstance(val, list):
        return all(not isinstance(x, (dict, list)) for x in val)
    return False


def parse_window(text):
    if text is None:
        return None
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ParseError(f"bad window {text!r}; expected LO:HI") from None
    if lo > hi:
        raise ParseError(f"bad window {text!r}; LO must not exceed HI")
    return (lo, hi)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except GhostdimError as exc:
            click.echo(f"error: {exc}", err=True)
        except MemoryError as exc:
            click.echo(f"error: out of memory: {exc}", err=True)
        sys.exit(2)


@click.group(cls=_Main)
def main():
    """Homological dimension calculator for derived categories of finite rings."""


@main.group()
def ring():
    """Ring corpus management."""


@ring.command("list")
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def ring_list(output):
    data = {"builtins": list(BUILTIN_NAMES)}
    emit(data, output)


@ring.command("describe")
@click.option("--ring", "selector", required=True)
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def ring_describe(selector, output):
    emit(resolve_ring(selector).describe(), output)


@main.command("dim")
@click.argument("quantity", type=click.Choice(["wdim", "gldim", "ghdim"]))
@click.option("--ring", "selector", required=True)
@click.option("--bound", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True)
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def dim_command(quantity, selector, bound, seed, output):
    """Compute a ring-level dimension."""
    r = resolve_ring(selector)
    if quantity in ("wdim", "gldim"):
        # a finite ring is noetherian on both sides, where gldim = wdim (Auslander)
        verdict, witnesses = wdim_ring(r, bound)
    else:
        verdict, witnesses = ghdim_ring(r, bound, seed=seed)
    rep = DimReport(ring=r.name, quantity=quantity, verdict=verdict,
                    bound=bound, seed=seed, witnesses=witnesses)
    emit(rep.to_json(), output)


@main.command("complex")
@click.argument("quantity", type=click.Choice(["pdim", "fdim"]))
@click.option("--file", "path", required=True, type=click.Path(exists=True))
@click.option("--bound", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--window", default=None)
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def complex_command(quantity, path, bound, window, output):
    """Compute the projective or flat dimension of a serialized complex."""
    data = read_json_file(path, "complex file")
    cx = complex_from_dict(data)
    win = parse_window(window)
    if quantity == "pdim":
        verdict = pdim_complex(cx, bound)
    else:
        verdict = fdim_via_ss(cx, bound, window=win)
    emit({"file": os.path.basename(path), "quantity": quantity, "bound": bound,
          "value": verdict.render(), "verdict": verdict.to_json()}, output)


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def verify_summary(r, bound, seed):
    g_verdict, g_rep = ghdim_ring(r, bound, seed=seed)
    w_verdict, w_wit = wdim_ring(r, bound)
    ok = g_verdict.same_verdict(w_verdict)
    report = {
        "suite": "summary",
        "ring": r.name,
        "ghdim": g_verdict.render(),
        "wdim": w_verdict.render(),
        "pass": ok,
        "ghdim_report": g_rep,
        "wdim_witnesses": w_wit,
    }
    if not ok:
        report["counterexamples"] = [{
            "kind": "summary",
            "ring": ring_to_dict(r),
            "bound": bound,
            "seed": seed,
            "ghdim": g_verdict.render(),
            "wdim": w_verdict.render(),
        }]
    return ok, report


def verify_symmetry(r, bound, seed):
    rep = symmetry_report(r, bound, seed=seed)
    ok = rep["status"] == "equal"
    report = {
        "suite": "symmetry",
        "ring": r.name,
        "ghdim": rep["ghdim"].render(),
        "ghdim_op": rep["ghdim_op"].render(),
        "status": rep["status"],
        "pass": ok,
    }
    if not ok:
        report["counterexamples"] = [{
            "kind": "symmetry",
            "ring": ring_to_dict(r),
            "bound": bound,
            "seed": seed,
            "ghdim": rep["ghdim"].render(),
            "ghdim_op": rep["ghdim_op"].render(),
        }]
    return ok, report


def _random_probes(x, rng):
    """Up to three nonzero random maps R -> x, from at most eight draws."""
    a = module_complex(free_module(x.ring, 1))
    draws = (random_chain_map(a, x, rng) for _ in range(8))
    return itertools.islice((f for f in draws if not f.is_zero), 3)


def _flatchar_check(x, bound, probes):
    """Flat homology iff the universal ghost is null; flat members factor each probe."""
    hom = x.homology()
    flat = all(is_projective(hom[k].module)[0] for k in x.degrees())
    ug = universal_ghost(x)
    ghost_null = null_homotopy(ug.ghost) is not None
    entry = {"flat_homology": flat, "universal_ghost_null": ghost_null}
    if flat != ghost_null:
        entry["fail"] = "ghost nullity disagrees with flatness"
        return entry
    if flat:
        checked = 0
        for f in probes:
            try:
                factor_through_projective(f, ug=ug)
            except GhostdimError as exc:
                entry["fail"] = f"factorization failed: {exc}"
                entry["map"] = chain_map_to_dict(f)
                return entry
            checked += 1
        entry["factorizations_checked"] = checked
    return entry


def _compact_eq_check(x, bound, probes):
    """pdim (ghost tower) and fdim (spectral sequence) agree."""
    v_p = pdim_complex(x, bound)
    v_f = fdim_via_ss(x, bound)
    entry = {"pdim": v_p.render(), "fdim": v_f.render(), "agree": v_p.same_verdict(v_f)}
    if not entry["agree"]:
        entry["fail"] = f"pdim {entry['pdim']} and fdim {entry['fdim']} disagree"
    return entry


def _rouquier_check(x, bound, probes):
    """S x is a retract of a pdim-step extension of frees (pdim <= min(4, bound))."""
    v = pdim_complex(x, bound)
    if not v.is_finite or v.n > min(4, bound):
        return {"pdim": v.render(), "skipped": True}
    try:
        cert = rouquier_build(x, v.n)
    except GhostdimError as exc:
        return {"pdim": v.render(), "fail": str(exc)}
    entry = {
        "pdim": v.render(),
        "triangles": len(cert.steps),
        "stage_ranks": [st.free_rank_total for st in cert.steps],
        "retract_exact": not cert.retract_homotopy.mats,
        "ok": len(cert.steps) <= v.n,
    }
    if not entry["ok"]:
        entry["fail"] = "too many triangles"
    return entry


# Each battery suite: its member check and the battery's minimum size.  A
# check maps (complex, bound, probes) to an entry that holds "fail" exactly
# when the member fails; `replay` runs the same check on a recorded complex.
_MEMBER_CHECKS = {
    "flatchar": (_flatchar_check, 12),
    "compact-eq": (_compact_eq_check, 25),
    "rouquier": (_rouquier_check, 15),
}


def _battery_suite(kind, r, bound, seed, probes):
    check, min_size = _MEMBER_CHECKS[kind]
    members, _ = standard_battery(r, bound, seed, min_size=min_size)
    rows = []
    failures = []
    for mem in members:
        entry = {"member": mem.ident, **check(mem.cx, bound, probes(mem.cx))}
        rows.append(entry)
        if "fail" in entry:
            ce = {
                "kind": kind,
                "ring": ring_to_dict(r),
                "bound": bound,
                "seed": seed,
                "complex": complex_to_dict(mem.cx),
                "detail": entry["fail"],
            }
            if "map" in entry:
                ce["map"] = entry.pop("map")
            failures.append(ce)
    ok = not failures
    report = {"suite": kind, "ring": r.name, "members": rows, "pass": ok}
    if failures:
        report["counterexamples"] = failures
    return ok, report


def verify_flatchar(r, bound, seed):
    # Members draw their probes lazily from one generator in id order (the
    # battery's order), so the report depends only on the inputs.
    rng = random.Random(seed + 1)
    return _battery_suite("flatchar", r, bound, seed, lambda x: _random_probes(x, rng))


def verify_compact_eq(r, bound, seed):
    ok, report = _battery_suite("compact-eq", r, bound, seed, lambda x: ())
    # battery_size sits between ring and members in the report
    return ok, {"suite": report.pop("suite"), "ring": report.pop("ring"),
                "battery_size": len(report["members"]), **report}


def verify_rouquier(r, bound, seed):
    return _battery_suite("rouquier", r, bound, seed, lambda x: ())


_SUITES = {
    "summary": verify_summary,
    "symmetry": verify_symmetry,
    "flatchar": verify_flatchar,
    "compact-eq": verify_compact_eq,
    "rouquier": verify_rouquier,
}


@main.command("verify")
@click.argument("suite", type=click.Choice(sorted(_SUITES)))
@click.option("--ring", "selector", required=True)
@click.option("--bound", default=8, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=0, show_default=True)
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def verify_command(suite, selector, bound, seed, output):
    """Run a theorem-verification suite against one ring."""
    ok, report = _SUITES[suite](resolve_ring(selector), bound, seed)
    report["result"] = "PASS" if ok else "FAIL"
    emit(report, output, exit_code=0 if ok else 1)


@main.command("replay")
@click.argument("path", type=click.Path(exists=True))
@click.option("--output", type=click.Choice(["text", "json"]), default="text")
def replay_command(path, output):
    """Re-run the checks recorded in a FAIL report or counterexample file."""
    data = read_json_file(path, "replay file")
    if not isinstance(data, dict):
        raise ParseError("a replay file must hold a JSON object")
    ces = data.get("counterexamples", [data] if "kind" in data else [])
    if not isinstance(ces, list) or not all(isinstance(ce, dict) for ce in ces):
        raise ParseError("'counterexamples' must be a list of objects")
    if not ces:
        raise ParseError("no counterexamples found in file")
    try:
        results = [_replay_one(ce) for ce in ces]
    except KeyError as exc:
        raise ParseError(f"counterexample missing field {exc}") from None
    ok = all(res["pass"] for res in results)
    emit({"replayed": results, "result": "PASS" if ok else "FAIL"}, output,
         exit_code=0 if ok else 1)


def _replay_one(ce):
    """Re-run a counterexample: a ring-level suite in full, or a battery
    suite's member check on the recorded complex (and recorded map, if any)."""
    kind = ce["kind"]
    if not isinstance(kind, str) or kind not in _SUITES:
        raise UnknownCommand(f"cannot replay counterexample of kind {kind!r}")
    r = make_ring(ring_spec_from_dict(ce["ring"]))
    bound = parse_int(ce.get("bound", 8), "counterexample 'bound'")
    if bound < 0:
        raise ParseError(f"counterexample 'bound' must be >= 0, got {bound}")
    seed = parse_int(ce.get("seed", 0), "counterexample 'seed'")
    if kind not in _MEMBER_CHECKS:
        ok, _ = _SUITES[kind](r, bound, seed)
        return {"kind": kind, "pass": ok}
    cx = complex_from_dict(ce["complex"], ring=r)
    a = module_complex(free_module(r, 1))
    probes = [chain_map_from_dict(a, cx, ce["map"])] if "map" in ce else []
    entry = _MEMBER_CHECKS[kind][0](cx, bound, probes)
    return {"kind": kind, "pass": "fail" not in entry, **entry}


if __name__ == "__main__":
    main()
