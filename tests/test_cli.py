"""Instance-file parsing, report generation, exit codes, determinism."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jder import cli, rings, solver
from jder.cli import (
    _SEARCH_TABLES,
    Instance,
    InstanceError,
    _associative,
    _search_batches,
    _target,
    load_instance,
    main,
    run,
)
from jder.rings import RingConstructionError, build_rings
from jder.solver import DERIVATION, JORDAN, AdditiveMap, CheckResult, check_map, compare_spaces

from oracles import _ASSOC_TERMS, search_chunk_reference, search_tables_reference

MATRIX_INSTANCE = """
[instance]
format_version = 1

[ring]
kind = matrix
size = 2

[ring.base]
kind = zmod
modulus = 2
"""

CHAIN_INSTANCE = """
[instance]
format_version = 1

[preorder]
labels = a b c
pairs = a<=b b<=c

[ring]
kind = zmod
modulus = 2
"""

ANTICHAIN_INSTANCE = """
[instance]
format_version = 1

[preorder]
labels = a b

[ring]
kind = zmod
modulus = 4
"""

TRIANGULAR_INSTANCE = """
[instance]
format_version = 1

[ring]
kind = triangular

[ring.left]
kind = zmod
modulus = 2

[ring.right]
kind = zmod
modulus = 2

[ring.module]
rank = 1
left_action = 0 0 : 1
right_action = 0 0 : 1
"""

CONSTANTS_INSTANCE = """
[instance]
format_version = 1

[ring]
kind = constants
modulus = 4
rank = 2
constants =
    0 0 : 1 0
    0 1 : 0 1
    1 0 : 0 1
labels = one x
unit = 1 0
"""


# A preorder over Z/2 with zero multiplication, which has no unit.
NONUNITAL_INCIDENCE_INSTANCE = """
[instance]
format_version = 1

[preorder]
labels = a b
pairs = a<=b

[ring]
kind = constants
modulus = 2
rank = 1
"""


# FI({a} + {b<=c}, Z/4[e]) with e^2 = 0: the benchmark's identities instance,
# here in randomized mode.
ISOLATED_RANDOMIZED_INSTANCE = """
[instance]
format_version = 1

[preorder]
labels = a b c
pairs = b<=c

[ring]
kind = constants
modulus = 4
rank = 2
unit = 1 0
constants =
    0 0 : 1 0
    0 1 : 0 1
    1 0 : 0 1
    1 1 : 0 0

[task]
command = identities
mode = randomized
seed = 3
trials = 25
"""

# FI(a<=b<=c<=d<=e, Z/4): rank 15, five class idempotents.
CHAIN5_IDENTITIES_INSTANCE = """
[instance]
format_version = 1

[preorder]
labels = a b c d e
pairs = a<=b b<=c c<=d d<=e

[ring]
kind = zmod
modulus = 4

[task]
command = identities
mode = basis
"""

BENCH = Path(__file__).resolve().parent.parent / "bench"


def sha256_of(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write(tmp_path, text, name="inst.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


# -- parsing -------------------------------------------------------------------


def test_load_matrix_instance(tmp_path):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    assert inst.preorder is None
    assert inst.ring.rank == 4 and inst.ring.modulus == 2
    assert inst.ring.is_unital
    assert inst.task == {}


def test_load_preorder_and_task(tmp_path):
    text = CHAIN_INSTANCE + "\n[task]\ncommand = compare\nseed = 9\ntrials = 17\nmoduli = 2 3\nmode = randomized\n"
    inst = load_instance(write(tmp_path, text))
    assert inst.preorder.labels == ("a", "b", "c")
    assert inst.preorder.leq("a", "c")
    assert inst.task == {
        "command": "compare",
        "seed": 9,
        "trials": 17,
        "moduli": (2, 3),
        "mode": "randomized",
    }


def test_load_constants_instance(tmp_path):
    inst = load_instance(write(tmp_path, CONSTANTS_INSTANCE))
    ring = inst.ring
    assert ring.labels == ("one", "x")
    assert ring.is_unital
    x = ring.basis_element(1)
    assert (x * x).coeffs == (0, 0)


def test_load_triangular_instance(tmp_path):
    ring = load_instance(write(tmp_path, TRIANGULAR_INSTANCE)).ring
    assert ring.rank == 3 and ring.is_unital


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("missing_instance", "[instance]"),
        ("bad_version", "format_version"),
        ("unknown_key", "unknown key"),
        ("unknown_section", "unknown section"),
        ("bad_pair", "a<=b"),
        ("bad_command", "unknown command"),
        ("bad_mode", "mode"),
        ("nonassociative", "associative"),
        ("missing_ring", "[ring]"),
        ("zmod_modulus", "[ring]: modulus must be an integer in [2, 2^31], got 1"),
        ("constants_modulus", "[ring]: modulus must be an integer in [2, 2^31], got 0"),
        ("base_modulus", "[ring.base]: modulus must be an integer in [2, 2^31], got 99999999999"),
        ("nonunital_incidence", "[ring]: incidence rings need a unital coefficient ring"),
        ("constants_int64", "[ring]: key 'constants' entry 99999999999999999999999 is outside the int64 range"),
        ("unit_int64", "[ring]: key 'unit' entry 9223372036854775808 is outside the int64 range"),
        ("action_int64", "[ring.module]: key 'left_action' entry -9223372036854775809 is outside the int64 range"),
    ],
)
def test_rejections(tmp_path, mutation, fragment):
    texts = {
        "missing_instance": "[ring]\nkind = zmod\nmodulus = 2\n",
        "bad_version": "[instance]\nformat_version = 7\n\n[ring]\nkind = zmod\nmodulus = 2\n",
        "unknown_key": MATRIX_INSTANCE + "\n[task]\ncolour = red\n",
        "unknown_section": MATRIX_INSTANCE + "\n[mystery]\nx = 1\n",
        "bad_pair": "[instance]\nformat_version = 1\n\n[preorder]\nlabels = a b\npairs = a<b\n\n[ring]\nkind = zmod\nmodulus = 2\n",
        "bad_command": MATRIX_INSTANCE + "\n[task]\ncommand = summon\n",
        "bad_mode": MATRIX_INSTANCE + "\n[task]\nmode = psychic\n",
        "nonassociative": "[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 2\nrank = 2\nconstants =\n    0 0 : 0 1\n    1 0 : 1 0\n",
        "missing_ring": "[instance]\nformat_version = 1\n",
        "zmod_modulus": "[instance]\nformat_version = 1\n\n[ring]\nkind = zmod\nmodulus = 1\n",
        "constants_modulus": "[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 0\nrank = 1\n",
        "base_modulus": MATRIX_INSTANCE.replace("modulus = 2", "modulus = 99999999999"),
        "nonunital_incidence": NONUNITAL_INCIDENCE_INSTANCE,
        "constants_int64": CONSTANTS_INSTANCE.replace("0 1 : 0 1", "0 1 : 0 99999999999999999999999"),
        "unit_int64": CONSTANTS_INSTANCE.replace("unit = 1 0", "unit = 9223372036854775808 0"),
        "action_int64": TRIANGULAR_INSTANCE.replace("left_action = 0 0 : 1",
                                                    "left_action = 0 0 : -9223372036854775809"),
    }
    with pytest.raises(InstanceError) as err:
        load_instance(write(tmp_path, texts[mutation]))
    assert fragment in str(err.value)


@pytest.mark.parametrize("constants, unit, product", [
    ("9223372036854775807", "\nunit = -9223372036854775807", 1),
    ("-9223372036854775808", "", 0),
], ids=["max", "min"])
def test_int64_bounds_are_accepted(tmp_path, constants, unit, product):
    text = ("[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 2\nrank = 1\n"
            f"constants = 0 0 : {constants}{unit}\n")
    assert load_instance(write(tmp_path, text)).ring.constants.tolist() == [[[product]]]


def test_nonassociative_error_names_a_triple(tmp_path):
    text = "[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 2\nrank = 2\nconstants =\n    0 0 : 0 1\n    1 0 : 1 0\n"
    with pytest.raises(InstanceError) as err:
        load_instance(write(tmp_path, text))
    assert "b0*b0" in str(err.value)


def test_constants_table_line_validation(tmp_path):
    base = "[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 2\nrank = 2\nconstants =\n"
    for line, fragment in [
        ("    0 0 0 1\n", "missing ':'"),
        ("    0 : 0 1\n", "two indices"),
        ("    0 5 : 0 1\n", "out of range"),
        ("    0 0 : 1\n", "needs 2 entries"),
        ("    0 0 : 0 1\n    0 0 : 1 0\n", "repeats"),
    ]:
        with pytest.raises(InstanceError) as err:
            load_instance(write(tmp_path, base + line))
        assert fragment in str(err.value)


# -- command execution ---------------------------------------------------------


def test_compare_matrix_ring(tmp_path):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    report = run("compare", inst)
    result = report["result"]
    assert result["verdict"] == "Equal" and result["witness"] is None
    assert result["derivations"]["cardinality"] == 8
    assert result["jordan"]["basis"]["generators"] == result["derivations"]["basis"]["generators"]
    assert report["instance"]["ring"]["rank"] == 4


def test_solver_reports_embed_basis(tmp_path):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    der = run("solve-der", inst)["result"]
    jder = run("solve-jder", inst)["result"]
    assert der["kind"] == DERIVATION and jder["kind"] == JORDAN
    assert der["basis"]["dim"] == 16 and der["basis"]["modulus"] == 2
    assert der["cardinality"] == 8 == jder["cardinality"]
    assert all(len(g) == 16 for g in der["basis"]["generators"])


def test_fi_build(tmp_path):
    inst = load_instance(write(tmp_path, CHAIN_INSTANCE))
    result = run("fi-build", inst)["result"]
    assert result["rank"] == 6
    assert result["classes"] == [["a"], ["b"], ["c"]]
    assert ["a", "c"] in result["pairs"]
    assert result["isolated_classes"] == []
    assert result["family_conditions_ok"]


def test_verdict_conditional(tmp_path):
    inst = load_instance(write(tmp_path, ANTICHAIN_INSTANCE))
    result = run("verdict", inst)["result"]
    assert result["outcome"] == "ConditionalOnCoefficientRing"
    assert result["isolated_elements"] == ["a", "b"]
    assert all(fact["kind"] == "conditional" for fact in result["facts"])


def test_cross_check_consistency(tmp_path):
    inst = load_instance(write(tmp_path, ANTICHAIN_INSTANCE))
    result = run("cross-check", inst)["result"]
    assert result["consistent"]
    assert result["fi_comparison"]["verdict"] == result["ring_comparison"]["verdict"]
    assert result["fi_rank"] == 2


def test_dprime_and_identities(tmp_path):
    inst = load_instance(write(tmp_path, CHAIN_INSTANCE))
    dprime = run("dprime-check", inst)["result"]
    assert dprime["ok"] and len(dprime["generators"]) >= 1
    identities = run("identities", inst)["result"]
    assert identities["ok"]
    names = {o["name"] for o in identities["generators"][0]["identities"]}
    assert "incidence-block" in names and "herstein" in names


def test_identities_randomized_depends_only_on_seed(tmp_path):
    inst = load_instance(write(tmp_path, CHAIN_INSTANCE))
    a = run("identities", inst, seed=5, trials=20, mode="randomized")
    b = run("identities", inst, seed=5, trials=20, mode="randomized")
    assert a == b


ZMOD6_INSTANCE = """
[instance]
format_version = 1

[ring]
kind = zmod
modulus = 6
"""


@pytest.mark.parametrize("mode", ["basis", "randomized"])
def test_identities_without_jordan_generators(tmp_path, mode):
    # JDer(Z/6) = 0: the stack of generators is empty.
    inst = load_instance(write(tmp_path, ZMOD6_INSTANCE))
    assert run("identities", inst, mode=mode)["result"] == {"generators": [], "ok": True}


def test_identities_report_matches_benchmark_digest(tmp_path):
    out = tmp_path / "report.json"
    instance = BENCH / "instances" / "identities-isolated.ini"
    assert main(["identities", "--input", str(instance), "--out", str(out)]) == 0
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    assert sha256_of(out) == expected["sha256"]["identities-isolated"]


def test_search_report_matches_benchmark_digest(tmp_path):
    # The m = 5 tables cross six decoding chunks, so every batch boundary counts.
    out = tmp_path / "report.json"
    instance = BENCH / "instances" / "search-rank2.ini"
    assert main(["search", "--input", str(instance), "--out", str(out)]) == 0
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    assert sha256_of(out) == expected["sha256"]["search-rank2"]


def test_identities_randomized_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    path = write(tmp_path, ISOLATED_RANDOMIZED_INSTANCE)
    assert main(["identities", "--input", path, "--out", str(out)]) == 0
    # Digest of this report as produced by the element-at-a-time suite.
    assert sha256_of(out) == "0dc4371983665a59d856720c0f0f425eb18f817b9ddb784ba9af9890e2ea71d3"


def test_identities_rank15_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    path = write(tmp_path, CHAIN5_IDENTITIES_INSTANCE)
    assert main(["identities", "--input", path, "--out", str(out)]) == 0
    # Digest of this report as produced by the suite that evaluated one
    # family tuple at a time with ring products, before the operator form.
    assert sha256_of(out) == "133a1bf4c8a2670cd68e706b10330705e7cb51326fa97424876aced5a5331a47"


def test_command_must_match_declared(tmp_path):
    text = MATRIX_INSTANCE + "\n[task]\ncommand = compare\n"
    inst = load_instance(write(tmp_path, text))
    with pytest.raises(InstanceError, match="declares command"):
        run("solve-der", inst)


def test_preorder_required_for_structural_commands(tmp_path):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    for command in ("fi-build", "verdict", "cross-check"):
        with pytest.raises(InstanceError, match="preorder"):
            run(command, inst)


def test_search_small_modulus_finds_nothing(tmp_path):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    result = run("search", inst, moduli=(2,))["result"]
    assert result["rings_checked"] == 30
    assert not result["found"]
    assert result["note"] == "none found in family"
    assert result["counterexamples"] == []


def test_search_modulus_four_finds_witnessed_counterexamples(tmp_path):
    from jder.rings import build_ring

    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    report = run("search", inst, moduli=(4,))
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    # Digest of these report bytes as produced by the kron-block assembly.
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == (
        "f7fb15d99ee946bab915cac092241c6b25d6ccf17cc267271a36b2e167ec6fbb")
    result = report["result"]
    assert result["found"] and result["note"] is None
    first = result["counterexamples"][0]
    ring = build_ring(
        first["modulus"], np.array(first["constants"]).reshape((first["rank"],) * 3)
    )
    witness = AdditiveMap.from_array(ring, np.array(first["witness"]))
    assert check_map(ring, witness, JORDAN).ok
    assert not check_map(ring, witness, DERIVATION).ok


@pytest.mark.parametrize("m, chunks, rings, digest", [
    (6, 26, 3394, "5891b8a9c5ca79358c56ec151897d35131d131f1481626825ea53f1e20908a29"),
    (7, 88, 2840, "2243ee4144ee2b3f5ff55be60daffca590eb399bc1f91f389fe823431196c1d8"),
])
def test_search_report_is_pinned_over_many_chunks(monkeypatch, tmp_path, m, chunks, rings, digest):
    # Digests of these reports as produced by compare_all on ring batches,
    # before search decided its batches as table stacks.
    real, batches = cli._search_batches, []

    def counted(moduli):
        for batch in real(moduli):
            batches.append(len(batch[1]))
            yield batch

    monkeypatch.setattr(cli, "_search_batches", counted)
    path = write(tmp_path, "[instance]\nformat_version = 1\n[ring]\nkind = zmod\nmodulus = 2\n"
                           f"[task]\ncommand = search\nmoduli = {m}\n")
    out = tmp_path / "report.json"
    assert main(["search", "--input", path, "--out", str(out)]) == 0
    result = json.loads(out.read_text(encoding="utf-8"))["result"]
    assert (len(batches), sum(batches)) == (1 + chunks, rings)
    assert (result["rings_checked"], result["counterexamples"]) == (rings, [])
    assert sha256_of(out) == digest


def test_search_enumeration_matches_reference():
    # 390,625 rank-2 tables at m = 5 span several decoding chunks.
    batches = [build_rings(m, tables) for m, tables in _search_batches((5, 3, 2, 4, 3))]
    got = [
        (ring.modulus, ring.rank, tuple(ring.constants.flatten().tolist()))
        for batch in batches for ring in batch
    ]
    # Per modulus, one rank-1 batch and one batch per chunk: 1 + 1 + 1 + 6 chunks.
    assert len(batches) == 4 + 9
    assert all(len({(ring.modulus, ring.rank) for ring in batch}) == 1 for batch in batches)
    assert got == [t for m in (2, 3, 4, 5) for t in search_tables_reference(m)]
    assert len(got) == 1572


def test_search_batches_hold_no_chunk_arrays_while_suspended():
    # Each batch is solved while the generator is suspended; no decoding or
    # filtering array of the 2^16-table chunk may stay alive across the yield.
    batches = _search_batches((5,))
    count = 0
    for batch in batches:
        count += 1
        held = {name: value.nbytes for name, value in batches.gi_frame.f_locals.items()
                if isinstance(value, np.ndarray) and value.nbytes > 1 << 16}
        assert held == {}
    assert count == 1 + 6


def test_search_imports_no_numpy_ma(tmp_path):
    # Plain np.unique imports numpy.ma on first use, about 1 MB of RSS.
    path = write(tmp_path, MATRIX_INSTANCE + "\n[task]\ncommand = search\nmoduli = 2 3\n")
    code = ("import sys, jder.cli\n"
            "before = set(sys.modules)\n"
            f"assert jder.cli.main(['search', '--input', {path!r}, '--out', {path + '.json'!r}]) == 0\n"
            "print(sorted(name for name in set(sys.modules) - before\n"
            "             if name == 'numpy.ma' or name.startswith('numpy.ma.')))\n")
    src = str(Path(cli.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_search_batches_peak_memory():
    # Iterating the m = 5 batches, rings built but not solved.  Decoding all
    # 2^16 numbers of each chunk through int64 index arrays peaked at 3.1 MB.
    tracemalloc.start()
    try:
        for _ in _search_batches((5,)):
            pass
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20


def test_search_batches_peak_memory_at_modulus_eight():
    # c001 = 0 in the first four 2^16-table chunks at m = 8, so the (0, 0, 0)
    # grid equations prune nothing there; decoding them in full peaked at
    # 4.8 MB per batch.  The (1, 1, 1) equations prune them on the grid.
    batches = _search_batches((8,))
    next(batches)  # the 8 rank-1 tables
    tracemalloc.start()
    try:
        peaks = []
        for _ in range(4):
            tracemalloc.reset_peak()
            next(batches)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert max(peaks) < 2 << 20


@pytest.mark.parametrize("chunk", [1 << 16, 1000], ids=["chunk-2^16", "chunk-1000"])
@pytest.mark.parametrize("m", [6, 7, 8])
def test_pruned_chunks_match_full_decode(monkeypatch, m, chunk):
    # A row is the m^4 numbers sharing the digits c[0, ., .].  Chunks of 1000
    # start inside a row at every m, and chunk 0 lies within one row; chunks
    # of 2^16 cut rows at m = 6 and 7 but are whole rows at m = 8.  The last
    # chunk is partial in every case except 2^16 at m = 8.
    assert (chunk % m ** 4 == 0) == (m ** 8 % chunk == 0) == (m == 8 and chunk == 1 << 16)
    monkeypatch.setattr(cli, "_SEARCH_CHUNK", chunk)
    for start in (0, chunk, (m ** 8 - 1) // chunk * chunk):
        got = cli._associative_tables(m, start)
        assert got.dtype == np.int64
        assert np.array_equal(got, search_chunk_reference(m, start, chunk))


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.lists(st.integers(0, m - 1), min_size=8, max_size=8), max_size=12),
)))
def test_associativity_filter_matches_scalar_check(case):
    m, tables = case
    stack = np.array(tables, dtype=np.int16).reshape(-1, 8).T.reshape(2, 2, 2, -1)
    got = _associative(stack, m).reshape(8, -1).T.tolist()
    assert got == [
        f for f in tables
        if all((f[a] * f[b] + f[c] * f[d] - f[e] * f[g] - f[h] * f[i]) % m == 0
               for a, b, c, d, e, g, h, i in _ASSOC_TERMS)
    ]


@pytest.mark.parametrize(
    "moduli, fragment",
    [
        ("0", "got 0"),
        ("2 0", "got 0"),
        ("1", "got 1"),
        ("-3", "got -3"),
        ("2147483649", "got 2147483649"),
        ("9", f"search limit {_SEARCH_TABLES}"),
        ("7 8", f"search limit {_SEARCH_TABLES}"),
        ("", "at least one modulus"),
    ],
)
def test_search_moduli_rejected_on_load(tmp_path, moduli, fragment):
    path = write(tmp_path, MATRIX_INSTANCE + f"\n[task]\nmoduli = {moduli}\n")
    with pytest.raises(InstanceError, match="moduli") as err:
        load_instance(path)
    assert str(err.value).startswith("[task]")
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "moduli, fragment",
    [
        ((0,), "got 0"),
        ((2, 0), "got 0"),
        ((1,), "got 1"),
        ((-3,), "got -3"),
        ((2.0,), "got 2.0"),
        ((1 << 31,), f"search limit {_SEARCH_TABLES}"),
        ((2, 3, 4, 5, 6, 7, 8), f"search limit {_SEARCH_TABLES}"),
        ((), "at least one modulus"),
    ],
)
def test_search_moduli_rejected_by_run(tmp_path, moduli, fragment):
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    with pytest.raises(InstanceError, match="moduli") as err:
        run("search", inst, moduli=moduli)
    assert str(err.value).startswith("[task]")
    assert fragment in str(err.value)


def test_search_table_limit_admits_modulus_eight(tmp_path):
    # 8^8 tables is exactly the limit, and a repeated modulus counts once.
    assert 8 ** 8 == _SEARCH_TABLES
    inst = load_instance(write(tmp_path, MATRIX_INSTANCE + "\n[task]\nmoduli = 8 8\n"))
    assert inst.task["moduli"] == (8, 8)


def test_main_search_limit_exit_code(tmp_path, capsys):
    path = write(tmp_path, MATRIX_INSTANCE + "\n[task]\ncommand = search\nmoduli = 9\n")
    assert main(["search", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"rank-2 tables, over the search limit {_SEARCH_TABLES}" in captured.err


def test_bench_trace_targets_resolve():
    # The benchmark's tracer wraps these by name; a rename would drop a layer.
    spec = importlib.util.spec_from_file_location("bench_child", BENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    assert child.TRACED
    for module, attr in child.TRACED:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_bench_chain3_solve_contract(monkeypatch):
    # bench/test_harness.py pins compare on chain3.ini, FI(chain3, Z/4), to
    # two kernels of 62 (Der) and 98 (JDer) rows, and to one check_map per
    # kernel generator; a refactor that breaks that contract fails here too.
    rows, gens, checks = [], [], []
    real_kernel, real_check = solver.kernel, solver.check_map

    def kernel(matrix):
        basis = real_kernel(matrix)
        rows.append(matrix.nrows)
        gens.append(len(basis.generators))
        return basis

    def check(ring, d, kind):
        checks.append(kind)
        return real_check(ring, d, kind)

    monkeypatch.setattr(solver, "kernel", kernel)
    monkeypatch.setattr(solver, "check_map", check)
    ring = _target(load_instance(str(BENCH / "instances" / "chain3.ini")))
    assert compare_spaces(ring).equal
    assert rows == [62, 98]
    assert checks == [DERIVATION] * gens[0] + [JORDAN] * gens[1] and gens[0] > 0


# -- entry point ---------------------------------------------------------------


def test_main_writes_deterministic_report(tmp_path, capsys):
    path = write(tmp_path, CHAIN_INSTANCE)
    out1, out2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    assert main(["compare", "--input", path, "--out", out1]) == 0
    assert main(["compare", "--input", path, "--out", out2]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "elapsed_seconds=" in captured.err
    text1 = open(out1, encoding="utf-8").read()
    assert text1 == open(out2, encoding="utf-8").read()
    report = json.loads(text1)
    assert report["command"] == "compare"
    assert report["result"]["verdict"] == "Equal"
    assert report["instance"]["fi_rank"] == 6


def test_main_stdout_report(tmp_path, capsys):
    path = write(tmp_path, MATRIX_INSTANCE)
    assert main(["solve-der", "--input", path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["cardinality"] == 8


def test_main_flag_overrides_task_seed(tmp_path, capsys):
    path = write(tmp_path, CHAIN_INSTANCE + "\n[task]\nseed = 4\n")
    assert main(["identities", "--input", path, "--seed", "11"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 11
    assert main(["identities", "--input", path]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 4


def test_main_validation_exit_code(tmp_path, capsys):
    path = write(tmp_path, MATRIX_INSTANCE + "\n[task]\ncolour = red\n")
    assert main(["compare", "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unknown key" in captured.err


def refuse_assembly(monkeypatch):
    def refuse(*args):
        raise AssertionError("constraint rows were assembled before the size check")

    monkeypatch.setattr(solver, "_constraint_matrices", refuse)


# FI(chain3, Z/2) has rank 6: its raw Der stack holds 6^2 * 6^3 = 7776 entries
# and its raw Jordan stack 6 * 7^2 / 2 * 6^3 = 31752.
@pytest.mark.parametrize("command, entries", [
    ("compare", 31752), ("solve-der", 7776), ("solve-jder", 31752),
    ("identities", 31752), ("dprime-check", 31752), ("cross-check", 31752)])
def test_main_solver_limit_exit_code(tmp_path, capsys, monkeypatch, command, entries):
    refuse_assembly(monkeypatch)
    monkeypatch.setattr(solver, "_SOLVE_LIMIT", 7775)
    assert main([command, "--input", write(tmp_path, CHAIN_INSTANCE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the solve needs {entries} raw constraint entries, over the solver limit 7775\n")


@pytest.mark.parametrize("command, labels, pairs, entries", [
    # FI(chain8, Z/2), rank 36: an 8.6 GiB raw Jordan stack.
    ("compare", "a b c d e f g h", "a<=b b<=c c<=d d<=e e<=f f<=g g<=h", 1149697152),
    # 33 isolated points over Z/2: rank 33, one over the rank-32 stack of the limit.
    ("cross-check", " ".join(f"p{i}" for i in range(33)), "", 33 * 34 ** 2 // 2 * 33 ** 3)])
def test_main_refuses_stacks_over_the_solver_limit(tmp_path, capsys, monkeypatch, command,
                                                   labels, pairs, entries):
    refuse_assembly(monkeypatch)
    text = CHAIN_INSTANCE.replace("labels = a b c", f"labels = {labels}").replace(
        "pairs = a<=b b<=c", f"pairs = {pairs}")
    assert main([command, "--input", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"error: the solve needs {entries} raw constraint entries, "
        "over the solver limit 570949632\n")


def test_budget_knob_is_gone(tmp_path):
    path = write(tmp_path, CHAIN_INSTANCE)
    with pytest.raises(SystemExit) as exc:
        main(["cross-check", "--input", path, "--budget", "2"])
    assert exc.value.code == 2
    with pytest.raises(InstanceError, match=r"^\[task\]: unknown key 'budget'$"):
        load_instance(write(tmp_path, CHAIN_INSTANCE + "\n[task]\nbudget = 5\n"))


@pytest.mark.parametrize("trials", [0, -1])
def test_main_refuses_randomized_trials_below_one(tmp_path, capsys, trials):
    message = f"error: trials must be at least 1 in randomized mode, got {trials}\n"
    path = write(tmp_path, CHAIN_INSTANCE + "\n[task]\nmode = randomized\n")
    assert main(["identities", "--input", path, "--trials", str(trials)]) == 2
    assert capsys.readouterr().err == message
    text = CHAIN_INSTANCE + f"\n[task]\nmode = randomized\ntrials = {trials}\n"
    assert main(["identities", "--input", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == message


def test_main_self_check_exit_code(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        solver, "check_map", lambda ring, d, kind: CheckResult(False, "triple", (0, 2))
    )
    path = write(tmp_path, MATRIX_INSTANCE)
    assert main(["compare", "--input", path]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: solver generator violates triple at (0, 2)" in captured.err


CHAIN10_INSTANCE = CHAIN_INSTANCE.replace("labels = a b c", "labels = a b c d e f g h i j").replace(
    "pairs = a<=b b<=c", "pairs = a<=b b<=c c<=d d<=e e<=f f<=g g<=h h<=i i<=j")


@pytest.mark.parametrize("command, text, message", [
    ("solve-der", MATRIX_INSTANCE.replace("modulus = 2", "modulus = 99999999999"),
     "[ring.base]: modulus must be an integer in [2, 2^31], got 99999999999"),
    ("compare", NONUNITAL_INCIDENCE_INSTANCE,
     "[ring]: incidence rings need a unital coefficient ring"),
    ("compare", CONSTANTS_INSTANCE.replace("0 1 : 0 1", "0 1 : 0 99999999999999999999999"),
     "[ring]: key 'constants' entry 99999999999999999999999 is outside the int64 range"),
    # Z/4 acting as 2 on the left: (b0 b0) m = 2m but b0 (b0 m) = 0.
    ("compare", TRIANGULAR_INSTANCE.replace("modulus = 2", "modulus = 4").replace(
        "left_action = 0 0 : 1", "left_action = 0 0 : 2"),
     "[ring.module]: left action is not associative on basis triple (0, 0, 0)"),
    ("compare", "[instance]\nformat_version = 1\n\n[ring]\nkind = constants\nmodulus = 2\n"
     "rank = 100000\n", "[ring]: the ring would have rank 100000, over the rank limit 48"),
    ("compare", MATRIX_INSTANCE.replace("size = 2", "size = 60"),
     "[ring]: the ring would have rank 3600, over the rank limit 48"),
    ("compare", CHAIN10_INSTANCE,  # 55 comparable pairs over Z/2
     "the ring would have rank 55, over the rank limit 48"),
    ("compare", TRIANGULAR_INSTANCE.replace("rank = 1", "rank = 100000"),
     "[ring.module]: the ring would have rank 100002, over the rank limit 48"),
], ids=["base-modulus", "nonunital-incidence", "int64-overflow", "bad-bimodule",
        "rank-constants", "rank-matrix", "rank-incidence", "rank-module"])
def test_main_ring_rejection_exit_code(tmp_path, capsys, command, text, message):
    assert main([command, "--input", write(tmp_path, text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


CYCLE60_INSTANCE = CHAIN_INSTANCE.replace(
    "labels = a b c", "labels = " + " ".join(f"p{i}" for i in range(60)) + " q").replace(
    "pairs = a<=b b<=c",
    "pairs = " + " ".join(f"p{i}<=p{(i + 1) % 60}" for i in range(60)) + " p0<=q")


def test_verdict_refuses_oversized_class_before_building(tmp_path, capsys, monkeypatch):
    # The 60-point class needs M_60(Z/2), refused before its pair list is made.
    def refuse(*args):
        raise AssertionError("a pair ring was built before the rank check")

    monkeypatch.setattr(rings, "_pair_constants", refuse)
    assert main(["verdict", "--input", write(tmp_path, CYCLE60_INSTANCE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the ring would have rank 3600, over the rank limit 48\n")


def test_verdict_rank_limit_is_inclusive(tmp_path, monkeypatch):
    # Classes {a, b} and {c} over M_2(Z/2): (2^2 + 2 * 1 + 1^2) * 4 = 28.
    text = MATRIX_INSTANCE + "\n[preorder]\nlabels = a b c\npairs = a<=b b<=a b<=c\n"
    expected = run("verdict", load_instance(write(tmp_path, text)))
    monkeypatch.setattr(rings, "_RANK_LIMIT", 28)
    assert run("verdict", load_instance(write(tmp_path, text))) == expected
    monkeypatch.setattr(rings, "_RANK_LIMIT", 27)
    message = r"^the ring would have rank 28, over the rank limit 27$"
    with pytest.raises(RingConstructionError, match=message):
        run("verdict", load_instance(write(tmp_path, text)))


def test_rank_limit_is_inclusive(tmp_path, monkeypatch):
    monkeypatch.setattr(rings, "_RANK_LIMIT", 6)
    assert run("fi-build", load_instance(write(tmp_path, CHAIN_INSTANCE)))["result"]["rank"] == 6
    monkeypatch.setattr(rings, "_RANK_LIMIT", 5)
    for command in ("fi-build", "cross-check", "compare"):
        with pytest.raises(RingConstructionError, match="rank 6, over the rank limit 5"):
            run(command, load_instance(write(tmp_path, CHAIN_INSTANCE)))


def test_main_missing_file_exit_code(tmp_path, capsys):
    assert main(["compare", "--input", str(tmp_path / "ghost.ini")]) == 2
    assert "cannot read" in capsys.readouterr().err
