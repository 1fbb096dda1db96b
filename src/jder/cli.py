"""Batch front end: INI instance files in, deterministic JSON reports out.

An instance file declares a coefficient ring, optionally a preorder (in
which case commands operate on the incidence ring FI(P, R)), and task
defaults.  Reports embed the canonical subgroup bases so that downstream
tools can re-verify membership claims without re-solving; all output is
byte-identical for identical (input, seed) pairs.  Timing goes to stderr
so it never perturbs the report.
"""

import argparse
import dataclasses
import itertools
import json
import sys
import time
from configparser import ConfigParser
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .analysis import _dprimes, _identity_suites, _suite_draws, cross_check, theorem_verdict
from .incidence import IncidenceRing, fi_ring, verify_family_conditions
from .preorders import ClosureError, Preorder
from .rings import (
    Bimodule,
    RingConstructionError,
    StructureRing,
    _check_rank,
    build_ring,
    matrix_ring,
    triangular_ring,
    zmod,
)
from .solver import (
    DERIVATION,
    JORDAN,
    DerivationSpace,
    SizeBudgetError,
    _compare_stack,
    _solve_all,
    compare_spaces,
)
from .zmodlin import SelfCheckError, SubgroupBasis, ZmMatrix

__all__ = ["InstanceError", "Instance", "load_instance", "run", "main"]

FORMAT_VERSION = 1
COMMANDS = (
    "solve-der",
    "solve-jder",
    "compare",
    "fi-build",
    "verdict",
    "cross-check",
    "identities",
    "dprime-check",
    "search",
)

_TASK_KEYS = {"command", "seed", "trials", "moduli", "mode"}
_TASK_DEFAULTS = {"seed": 0, "trials": 1000, "moduli": (2, 3, 4), "mode": "basis"}
_PREORDER_KEYS = {"labels", "pairs", "auto_close"}
_RING_KEYS = {
    "zmod": {"kind", "modulus"},
    "matrix": {"kind", "size"},
    "triangular": {"kind"},
    "constants": {"kind", "modulus", "rank", "constants", "unit", "labels"},
}
_MODULE_KEYS = {"rank", "left_action", "right_action"}


class InstanceError(ValueError):
    """Any instance-file or task validation problem, with field provenance."""


@dataclass(frozen=True)
class Instance:
    preorder: Preorder | None
    ring: StructureRing
    task: dict


def _fail(section: str, message: str) -> None:
    raise InstanceError(f"[{section}]: {message}")


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw.strip())
    except ValueError:
        _fail(section, f"key {key!r} must be an integer, got {raw!r}")


def _parse_vector(section: str, key: str, raw: str, length: int) -> tuple:
    parts = raw.split()
    if len(parts) != length:
        _fail(section, f"key {key!r} needs {length} entries, got {len(parts)}")
    values = tuple(_parse_int(section, key, p) for p in parts)
    for v in values:
        if not -2**63 <= v < 2**63:
            _fail(section, f"key {key!r} entry {v} is outside the int64 range")
    return values


def _parse_table_lines(section: str, key: str, raw: str, shape: tuple) -> np.ndarray:
    """Lines of the form "i j : v0 v1 ..." filling a (shape[0], shape[1], width) array."""
    out = np.zeros(shape, dtype=np.int64)
    seen = set()
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        head, _, tail = line.partition(":")
        if not _:
            _fail(section, f"{key!r} line {line!r} is missing ':'")
        idx = head.split()
        if len(idx) != 2:
            _fail(section, f"{key!r} line {line!r} needs two indices before ':'")
        i = _parse_int(section, key, idx[0])
        j = _parse_int(section, key, idx[1])
        if not (0 <= i < shape[0] and 0 <= j < shape[1]):
            _fail(section, f"{key!r} indices ({i}, {j}) out of range")
        if (i, j) in seen:
            _fail(section, f"{key!r} repeats the pair ({i}, {j})")
        seen.add((i, j))
        out[i, j] = _parse_vector(section, key, tail, shape[2])
    return out


def _check_keys(parser: ConfigParser, section: str, allowed: set) -> None:
    for key in parser[section]:
        if key not in allowed:
            _fail(section, f"unknown key {key!r}")


def _parse_preorder(parser: ConfigParser) -> Preorder:
    section = "preorder"
    _check_keys(parser, section, _PREORDER_KEYS)
    if "labels" not in parser[section]:
        _fail(section, "key 'labels' is required")
    labels = parser[section]["labels"].split()
    pairs = []
    for token in parser[section].get("pairs", "").split():
        left, sep, right = token.partition("<=")
        if not sep or not left or not right:
            _fail(section, f"pair token {token!r} must look like 'a<=b'")
        pairs.append((left, right))
    try:
        auto_close = parser[section].getboolean("auto_close", fallback=True)
    except ValueError:
        _fail(section, "key 'auto_close' must be a boolean")
    try:
        return Preorder.from_pairs(labels, pairs, auto_close=auto_close)
    except (ClosureError, ValueError) as exc:
        _fail(section, str(exc))


def _parse_ring(parser: ConfigParser, section: str, visited: set) -> StructureRing:
    if section not in parser:
        _fail(section, "section is required but missing")
    visited.add(section)
    kind = parser[section].get("kind")
    if kind not in _RING_KEYS:
        _fail(section, f"key 'kind' must be one of {sorted(_RING_KEYS)}, got {kind!r}")
    _check_keys(parser, section, _RING_KEYS[kind])
    try:
        if kind == "zmod":
            if "modulus" not in parser[section]:
                _fail(section, "key 'modulus' is required")
            return zmod(_parse_int(section, "modulus", parser[section]["modulus"]))
        if kind == "matrix":
            if "size" not in parser[section]:
                _fail(section, "key 'size' is required")
            size = _parse_int(section, "size", parser[section]["size"])
            base = _parse_ring(parser, f"{section}.base", visited)
            return matrix_ring(base, size)
        if kind == "triangular":
            left = _parse_ring(parser, f"{section}.left", visited)
            right = _parse_ring(parser, f"{section}.right", visited)
            return triangular_ring(left, _parse_module(parser, f"{section}.module", left, right, visited), right)
        return _parse_constants_ring(parser, section)
    except InstanceError:
        raise
    except ValueError as exc:  # a RingConstructionError or a modulus out of range
        _fail(section, str(exc))


def _parse_module(parser: ConfigParser, section: str, left: StructureRing,
                  right: StructureRing, visited: set) -> Bimodule:
    if section not in parser:
        _fail(section, "section is required but missing")
    visited.add(section)
    _check_keys(parser, section, _MODULE_KEYS)
    for key in ("rank", "left_action", "right_action"):
        if key not in parser[section]:
            _fail(section, f"key {key!r} is required")
    rank = _parse_int(section, "rank", parser[section]["rank"])
    if rank < 0:
        _fail(section, "key 'rank' must be nonnegative")
    try:
        _check_rank(left.rank + rank + right.rank)
        left_action = _parse_table_lines(
            section, "left_action", parser[section]["left_action"], (left.rank, rank, rank)
        )
        right_action = _parse_table_lines(
            section, "right_action", parser[section]["right_action"], (rank, right.rank, rank)
        )
        return Bimodule(left, right, rank, left_action, right_action)
    except RingConstructionError as exc:
        _fail(section, str(exc))


def _parse_constants_ring(parser: ConfigParser, section: str) -> StructureRing:
    for key in ("modulus", "rank"):
        if key not in parser[section]:
            _fail(section, f"key {key!r} is required")
    modulus = _parse_int(section, "modulus", parser[section]["modulus"])
    rank = _parse_int(section, "rank", parser[section]["rank"])
    if rank < 0:
        _fail(section, "key 'rank' must be nonnegative")
    _check_rank(rank)  # the caller's try gives the [section] prefix
    constants = _parse_table_lines(
        section, "constants", parser[section].get("constants", ""), (rank, rank, rank)
    )
    unit = None
    if "unit" in parser[section]:
        unit = _parse_vector(section, "unit", parser[section]["unit"], rank)
    labels = None
    if "labels" in parser[section]:
        labels = parser[section]["labels"].split()
    return build_ring(modulus, constants, unit=unit, labels=labels)


def load_instance(path: str) -> Instance:
    parser = ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise InstanceError(f"cannot read instance file: {exc}") from exc
    except Exception as exc:
        raise InstanceError(f"instance file does not parse: {exc}") from exc

    if "instance" not in parser:
        _fail("instance", "section is required")
    _check_keys(parser, "instance", {"format_version"})
    version = parser["instance"].get("format_version")
    if version is None or version.strip() != str(FORMAT_VERSION):
        _fail("instance", f"format_version must be {FORMAT_VERSION}, got {version!r}")

    visited = {"instance"}
    preorder = None
    if "preorder" in parser:
        visited.add("preorder")
        preorder = _parse_preorder(parser)

    if "ring" not in parser:
        _fail("ring", "section is required")
    ring = _parse_ring(parser, "ring", visited)
    if preorder is not None and not ring.is_unital:
        _fail("ring", "incidence rings need a unital coefficient ring")

    task = {}
    if "task" in parser:
        visited.add("task")
        _check_keys(parser, "task", _TASK_KEYS)
        raw = parser["task"]
        if "command" in raw:
            command = raw["command"].strip()
            if command not in COMMANDS:
                _fail("task", f"unknown command {command!r}")
            task["command"] = command
        for key in ("seed", "trials"):
            if key in raw:
                task[key] = _parse_int("task", key, raw[key])
        if "moduli" in raw:
            task["moduli"] = tuple(
                _parse_int("task", "moduli", tok) for tok in raw["moduli"].split()
            )
            _check_moduli(task["moduli"])
        if "mode" in raw:
            mode = raw["mode"].strip()
            if mode not in ("basis", "randomized"):
                _fail("task", f"mode must be 'basis' or 'randomized', got {mode!r}")
            task["mode"] = mode

    unknown = [s for s in parser.sections() if s not in visited]
    if unknown:
        _fail(unknown[0], "unknown section")
    return Instance(preorder, ring, task)


# -- report serialization ------------------------------------------------------

def _basis_json(basis) -> dict:
    return {
        "modulus": basis.modulus,
        "dim": basis.dim,
        "generators": basis.as_array().tolist(),
    }


def _map_json(d) -> list:
    return d.as_array().tolist()


def _space_json(space) -> dict:
    return {
        "kind": space.kind,
        "cardinality": space.cardinality(),
        "basis": _basis_json(space.basis),
    }


def _comparison_json(cmp) -> dict:
    return {
        "verdict": cmp.verdict,
        "equal": cmp.equal,
        "derivations": _space_json(cmp.derivations),
        "jordan": _space_json(cmp.jordan),
        "witness": None if cmp.witness is None else _map_json(cmp.witness),
    }


def _verdict_json(verdict) -> dict:
    return {
        "outcome": verdict.outcome,
        "isolated_elements": list(verdict.isolated_elements),
        "facts": [
            {
                "class_index": fact.class_index,
                "members": list(fact.members),
                "kind": fact.kind,
                "partner": fact.partner,
                "faithful": None if fact.faithful is None else list(fact.faithful),
            }
            for fact in verdict.facts
        ],
    }


def _digest(instance: Instance, fi_rank: int | None) -> dict:
    ring = instance.ring
    out = {
        "ring": {
            "modulus": ring.modulus,
            "rank": ring.rank,
            "unital": ring.is_unital,
            "labels": list(ring.labels),
        },
        "preorder": None,
        "fi_rank": fi_rank,
    }
    if instance.preorder is not None:
        quotient = instance.preorder.quotient()
        out["preorder"] = {
            "labels": list(instance.preorder.labels),
            "classes": [list(quotient.members(ci)) for ci in range(quotient.size)],
            "isolated_elements": list(instance.preorder.isolated_elements()),
        }
    return out


# -- command execution ---------------------------------------------------------

def _require_preorder(instance: Instance, command: str) -> Preorder:
    if instance.preorder is None:
        raise InstanceError(f"command {command!r} needs a [preorder] section")
    return instance.preorder


def _target(instance: Instance) -> StructureRing:
    """The ring a command acts on: FI(P, R) when there is a preorder, else R."""
    if instance.preorder is None:
        return instance.ring
    return fi_ring(instance.preorder, instance.ring)


def _jordan_family(target: StructureRing) -> list:
    if isinstance(target, IncidenceRing):
        return target.class_idempotents()
    if not target.is_unital:
        raise InstanceError("a plain coefficient ring must be unital for this command")
    return [target.one()]


# Rank-2 tables solved as one stack, and candidates filtered by one ``_associative``
# call; they bound the working memory of the solver and the enumeration.
_SEARCH_STACK, _SEARCH_CANDIDATES = 512, 1 << 13
# Most rank-2 tables one search visits, summing m^8 over its moduli (so m <= 8);
# int16 holds each associativity residual, in +-2(m - 1)^2, for any m <= 128.
_SEARCH_TABLES = 1 << 24
# Most coefficients one map's randomized identity stream may draw: about 52 s of
# random.Random.randrange at 0.52 us a draw.
_DRAW_LIMIT = 10 ** 8


def _check_moduli(moduli) -> None:
    if not moduli:
        _fail("task", "key 'moduli' needs at least one modulus")
    for m in moduli:
        if not (isinstance(m, int) and 2 <= m <= 1 << 31):
            _fail("task", f"key 'moduli' entries must be integers in [2, 2^31], got {m!r}")
    tables = sum(m ** 8 for m in set(moduli))
    if tables > _SEARCH_TABLES:
        _fail("task", f"key 'moduli' needs {tables} rank-2 tables, over the search limit {_SEARCH_TABLES}")


def _associative(c: np.ndarray, m: int) -> np.ndarray:
    """The associative tables among c[i, j, t, n] (b_i b_j's coefficient t), in order;
    each equation (b_i b_j) b_l = b_i (b_j b_l) at t drops the tables that fail it."""
    for i, j, l, t in itertools.product(range(2), repeat=4):
        # Its residual A has sum_j A(i, j, l, j) = 0 (swap j and s in the second sum),
        # so (i, 1, l, 1) follows from the earlier (i, 0, l, 0) and is skipped.
        if j == t == 1:
            continue
        residual = (c[i, j, 0] * c[0, l, t] + c[i, j, 1] * c[1, l, t]
                    - c[j, l, 0] * c[i, 0, t] - c[j, l, 1] * c[i, 1, t])
        c = c[..., residual % m == 0]
    return c


def _associative_tables(m: int) -> np.ndarray:
    """The associative rank-2 tables over Z/m in lexicographic order of their 8
    flattened entries, as int16 (n, 2, 2, 2).

    The equations at (i, j, l) = (0, 0, 0) and (1, 1, 1), with the residuals
    c001 (c10t - c01t) and c110 (c01t - c10t), hold exactly when c100 - c010 and
    c101 - c011 are multiples of m / gcd(c001, c110, m).  The six middle digits
    that pass them, between every c000 and every c111, are the candidates in
    order; ``_associative`` filters them in runs of at most ``_SEARCH_CANDIDATES``.
    """
    d = np.arange(m)
    period = m // np.gcd(np.gcd.outer(d, d), m)  # [c001, c110]
    # ok[c001, c01t, c10t, c110]: c10t - c01t is a multiple of the period.
    ok = (d - d[:, None])[None, :, :, None] % period[:, None, None, :] == 0
    flat = np.flatnonzero(ok[:, :, None, :, None] & ok[:, None, :, None]).astype(np.int32)
    middle = np.array([flat // m ** p % m for p in range(5, -1, -1)], dtype=np.int16)
    rows, step, found = m * len(flat), max(1, _SEARCH_CANDIDATES // m), []
    for start in range(0, rows, step):
        c000, row = np.divmod(np.arange(start, min(start + step, rows)), len(flat))
        c = np.empty((8, len(row), m), dtype=np.int16)
        c[0], c[1:7], c[7] = c000[:, None], middle[:, row, None], d
        found.append(_associative(c.reshape(2, 2, 2, -1), m))
    return np.moveaxis(np.concatenate(found, axis=-1), -1, 0)


def _search_batches(moduli):
    """All structure-constant tables of rank <= 2 over the given moduli, in batches.

    Yields (m, tables) with tables int64 (n, k, k, k) and reduced: per modulus,
    one batch of the m rank-1 tables, then the associative rank-2 tables
    (``_associative_tables``) in stacks of at most ``_SEARCH_STACK``.  The
    filter in ``_associative_tables`` decides associativity; nothing checks it
    again, and a tier-1 test pins it against ``rings._check_associative`` for
    every modulus ``_SEARCH_TABLES`` admits, m = 2..8.  No ring is built.
    """
    for m in sorted(set(moduli)):
        yield m, np.arange(m, dtype=np.int64).reshape(m, 1, 1, 1)
        tables = _associative_tables(m)
        for start in range(0, len(tables), _SEARCH_STACK):
            yield m, tables[start:start + _SEARCH_STACK].astype(np.int64)


def run(command: str, instance: Instance) -> dict:
    """Execute one subcommand and produce the JSON-ready report body; seed, trials,
    moduli and mode come from ``instance.task``, else from ``_TASK_DEFAULTS``."""
    task = {**_TASK_DEFAULTS, **instance.task}
    seed, trials, moduli, mode = (task[key] for key in ("seed", "trials", "moduli", "mode"))
    if command not in COMMANDS:
        raise InstanceError(f"unknown command {command!r}")
    declared = instance.task.get("command")
    if declared is not None and declared != command:
        raise InstanceError(
            f"instance file declares command {declared!r}, not {command!r}"
        )
    if command == "identities" and mode == "randomized" and trials < 1:
        raise InstanceError(f"trials must be at least 1 in randomized mode, got {trials}")

    fi_rank = None
    result: dict
    if command in ("solve-der", "solve-jder", "compare", "identities", "dprime-check"):
        target = _target(instance)
        if isinstance(target, IncidenceRing):
            fi_rank = target.rank
        if command == "compare":
            # On the full rows: bench/test_harness.py pins its one check_map per generator.
            result = _comparison_json(compare_spaces(target))
        else:
            # The family is checked before the solve.  One self-checked stack of one, on the
            # target's Peirce support, gives the space, its generators and derivation flags.
            kind = DERIVATION if command == "solve-der" else JORDAN
            family = None if command.startswith("solve") else _jordan_family(target)
            if command == "identities" and mode == "randomized":
                draws = trials * _suite_draws(target, family)
                if draws > _DRAW_LIMIT:
                    raise InstanceError(f"randomized identities draw {draws} sample coefficients "
                                        f"per map, over the draw limit {_DRAW_LIMIT}")
            slots, _, D, derivation = _solve_all(target.constants[None], target.modulus, kind,
                                                 target.peirce_support())
        if command.startswith("solve"):
            basis = SubgroupBasis(ZmMatrix.from_array(target.modulus, slots[0]))
            result = _space_json(DerivationSpace(target, kind, basis))
        elif command == "dprime-check":
            same = (_dprimes(target, family, D) == D).all(axis=(1, 2)).tolist()
            result = {"generators": [{"generator": n, "reconstructed_equals_original": s}
                                     for n, s in enumerate(same)], "ok": all(same)}
        elif command == "identities":
            reports = _identity_suites(target, family, D, derivation, mode, seed, trials)
            entries = [{"generator": n, "ok": report.ok, "identities": [
                {"name": o.name, "applicable": o.applicable, "passed": o.passed, "checks": o.checks}
                for o in report.outcomes]} for n, report in enumerate(reports)]
            result = {"generators": entries, "ok": all(e["ok"] for e in entries)}
    elif command == "fi-build":
        _require_preorder(instance, command)
        fi = _target(instance)
        fi_rank = fi.rank
        family_report = verify_family_conditions(fi, fi.class_idempotents())
        quotient = fi.quotient
        result = {
            "rank": fi.rank,
            "pairs": [
                [fi.preorder.labels[p], fi.preorder.labels[q]] for (p, q) in fi.pairs
            ],
            "classes": [list(quotient.members(ci)) for ci in range(quotient.size)],
            "isolated_classes": list(quotient.isolated_classes()),
            "family_conditions_ok": family_report.ok,
        }
    elif command == "verdict":
        preorder = _require_preorder(instance, command)
        result = _verdict_json(theorem_verdict(preorder, instance.ring))
    elif command == "cross-check":
        preorder = _require_preorder(instance, command)
        report = cross_check(preorder, instance.ring)
        fi_rank = report.fi_rank
        result = {
            "verdict": _verdict_json(report.verdict),
            "fi_comparison": _comparison_json(report.fi_comparison),
            "ring_comparison": _comparison_json(report.ring_comparison),
            "fi_rank": report.fi_rank,
            "consistent": report.consistent,
        }
    else:  # search
        _check_moduli(moduli)
        counterexamples = []
        checked = 0
        for m, tables in _search_batches(moduli):
            checked += len(tables)
            _, proper, witnesses, _ = _compare_stack(tables, m)
            for table, witness in zip(tables[proper], witnesses):
                counterexamples.append({
                    "modulus": m,
                    "rank": tables.shape[1],
                    "constants": table.flatten().tolist(),
                    "witness": witness.tolist(),
                })
        result = {
            "family": {"moduli": sorted(set(moduli)), "max_rank": 2},
            "rings_checked": checked,
            "counterexamples": counterexamples,
            "found": bool(counterexamples),
            "note": None if counterexamples else "none found in family",
        }

    return {
        "format_version": FORMAT_VERSION,
        "command": command,
        "seed": seed,
        "instance": _digest(instance, fi_rank),
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="jder",
        description="Exact derivation/Jordan-derivation analysis of finite rings "
                    "and incidence rings.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="instance file (INI format)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    try:
        instance = load_instance(args.input)
        flags = {k: v for k, v in (("seed", args.seed), ("trials", args.trials)) if v is not None}
        report = run(args.command, dataclasses.replace(instance, task={**instance.task, **flags}))
    except (InstanceError, SizeBudgetError, RingConstructionError, ClosureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SelfCheckError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    with open(args.out, "w", encoding="utf-8") if args.out else nullcontext(sys.stdout) as handle:
        # One write: json.dump makes thousands of small ones.
        handle.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    print(f"elapsed_seconds={time.perf_counter() - started:.3f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
