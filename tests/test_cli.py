"""Instance-file parsing, report generation, exit codes, determinism."""

import dataclasses
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
from jder.rings import RingConstructionError
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


def with_task(instance, **task):
    """The instance with these task values set, as ``main`` sets its flags."""
    return dataclasses.replace(instance, task={**instance.task, **task})


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
    a = run("identities", with_task(inst, seed=5, trials=20, mode="randomized"))
    b = run("identities", with_task(inst, seed=5, trials=20, mode="randomized"))
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
    assert run("identities", with_task(inst, mode=mode))["result"] == {"generators": [], "ok": True}


def test_identities_report_matches_benchmark_digest(tmp_path):
    out = tmp_path / "report.json"
    instance = BENCH / "instances" / "identities-isolated.ini"
    assert main(["identities", "--input", str(instance), "--out", str(out)]) == 0
    expected = json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))
    assert sha256_of(out) == expected["sha256"]["identities-isolated"]


def test_search_report_matches_benchmark_digest(tmp_path):
    # The m = 4 and 5 tables span two stacks each, so every batch boundary counts.
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


# FI(a<=b<=...<=f, Z/3), rank 21, and FI({a} + {b<=c<=d}, Z/9), rank 7.
CHAIN6_Z3_INSTANCE = CHAIN_INSTANCE.replace("labels = a b c", "labels = a b c d e f").replace(
    "pairs = a<=b b<=c", "pairs = a<=b b<=c c<=d d<=e e<=f").replace("modulus = 2", "modulus = 3")
DISCONNECTED_Z9_INSTANCE = CHAIN_INSTANCE.replace("labels = a b c", "labels = a b c d").replace(
    "pairs = a<=b b<=c", "pairs = b<=c c<=d").replace("modulus = 2", "modulus = 9")


@pytest.mark.parametrize("command, text, digest", [
    ("compare", CHAIN6_Z3_INSTANCE,
     "67914e8621108009b1c932f3fd0b3b8a87455708e343d8156d9ce78a131d2708"),
    ("cross-check", DISCONNECTED_Z9_INSTANCE,
     "3c67f9403d3001764bed2dac2fb8843c167e8a434b52e16724a4a60837a2cca8"),
    ("solve-jder", DISCONNECTED_Z9_INSTANCE,
     "3c50a0c385aa0d7eaa1475c3e8a630b6773c92d264e9ab5dec3d73d4ab3fb1f9"),
], ids=["compare-chain6-m3", "cross-check-m9", "solve-jder-m9"])
def test_odd_modulus_reports_are_pinned(tmp_path, command, text, digest):
    # Digests of these reports as produced by the solver that built all four
    # Jordan row families at every modulus.
    out = tmp_path / "report.json"
    assert main([command, "--input", write(tmp_path, text), "--out", str(out)]) == 0
    assert sha256_of(out) == digest


# FI(a<=b<=c<=d<=e, Z/4), rank 15, where FI and Z/4 are Equal, and FI({a} + {b<=c}, R3),
# rank 12, with R3 = Z/4 + Z/4 b1 + Z/4 b2 (b2 b2 = 2 b2), where both are ProperInclusion.
CHAIN5_Z4_INSTANCE = CHAIN5_IDENTITIES_INSTANCE.split("[task]")[0]
POINT_CHAIN_R3_INSTANCE = ISOLATED_RANDOMIZED_INSTANCE.split("[ring]")[0] + """[ring]
kind = constants
modulus = 4
rank = 3
unit = 1 0 0
constants =
    0 0 : 1 0 0
    0 1 : 0 1 0
    0 2 : 0 0 1
    1 0 : 0 1 0
    2 0 : 0 0 1
    2 2 : 0 0 2
"""


@pytest.mark.parametrize("command, text, digest", [
    ("cross-check", CHAIN5_Z4_INSTANCE,
     "566fed3e0993d2d652e4b4b0b7cab38382c88d7362a9fc054ec72659aebbd9c2"),
    ("cross-check", POINT_CHAIN_R3_INSTANCE,
     "783c5ac810d55efe59235ffbdeea405a2916e2360617cf627d2e7376ccc378dd"),
], ids=["cross-check-chain5-equal", "cross-check-r3-proper"])
def test_cross_check_reports_are_pinned(tmp_path, command, text, digest):
    # Digests of these reports as produced by compare_spaces on FI and on the
    # coefficient ring, which solved Der for every ring, before cross_check took
    # both comparisons from compare_all.
    out = tmp_path / "report.json"
    assert main([command, "--input", write(tmp_path, text), "--out", str(out)]) == 0
    assert sha256_of(out) == digest


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
    result = run("search", with_task(inst, moduli=(2,)))["result"]
    assert result["rings_checked"] == 30
    assert not result["found"]
    assert result["note"] == "none found in family"
    assert result["counterexamples"] == []


def test_search_modulus_four_finds_witnessed_counterexamples(tmp_path):
    from jder.rings import build_ring

    inst = load_instance(write(tmp_path, MATRIX_INSTANCE))
    report = run("search", with_task(inst, moduli=(4,)))
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


@pytest.mark.parametrize("m, stacks, rings, digest", [
    (6, 7, 3394, "5891b8a9c5ca79358c56ec151897d35131d131f1481626825ea53f1e20908a29"),
    (7, 6, 2840, "2243ee4144ee2b3f5ff55be60daffca590eb399bc1f91f389fe823431196c1d8"),
    (8, 25, 12648, "789c02f1a604611a0faf9699936b278a150dac4b2f6a54fe65fbece89e279ce6"),
])
def test_search_report_is_pinned_over_many_chunks(monkeypatch, tmp_path, m, stacks, rings, digest):
    # Digests of these reports as produced by compare_all on ring batches,
    # before search decided its batches as table stacks (m = 6 and 7), and by
    # the 2^16-number chunks that enumeration once decoded (m = 8: 2,514
    # counterexamples).  The rank-2 tables come in stacks of at most 512.
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
    assert (len(batches), sum(batches)) == (1 + stacks, rings)
    assert result["rings_checked"] == rings
    assert (len(result["counterexamples"]), result["found"]) == ((2514, True) if m == 8 else (0, False))
    assert sha256_of(out) == digest


def test_search_enumeration_matches_reference():
    batches = list(_search_batches((5, 3, 2, 4, 3)))
    got = [
        (m, tables.shape[1], tuple(table.flatten().tolist()))
        for m, tables in batches for table in tables
    ]
    # Per modulus, one rank-1 batch and the rank-2 tables in stacks of at most
    # 512: 28, 121, 616 = 512 + 104 and 793 = 512 + 281 at m = 2, 3, 4, 5.
    assert [len(tables) for _, tables in batches] == [2, 28, 3, 121, 4, 512, 104, 5, 512, 281]
    assert all(tables.shape[1:] == (tables.shape[1],) * 3 for _, tables in batches)
    assert got == [t for m in (2, 3, 4, 5) for t in search_tables_reference(m)]
    assert len(got) == 1572


@pytest.mark.parametrize("m", range(2, 9))
def test_search_batches_are_reduced_associative_int64(m):
    # _SEARCH_TABLES admits m <= 8, and search solves its tables without checking
    # associativity again, so the enumerator's filter is pinned here for every m.
    assert m ** 8 <= _SEARCH_TABLES < 9 ** 8
    for modulus, tables in _search_batches((m,)):
        assert modulus == m and tables.dtype == np.int64
        assert ((tables >= 0) & (tables < m)).all()
        for table in tables:
            rings._check_associative(m, table)


def test_search_batches_hold_no_chunk_arrays_while_suspended():
    # Each batch is solved while the generator is suspended; no decoding or
    # filtering array of the enumeration may stay alive across the yield.  The
    # 793 rank-2 tables at m = 5 are held as int16, 12,688 bytes.
    batches = _search_batches((5,))
    count = 0
    for batch in batches:
        count += 1
        held = {name: value.nbytes for name, value in batches.gi_frame.f_locals.items()
                if isinstance(value, np.ndarray) and value.nbytes > 1 << 16}
        assert held == {}
    assert count == 1 + 2


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
    # The first rank-2 batch enumerates all m = 8 tables: 13,312 of the 8^6
    # middle digit rows pass the (0, 0, 0) and (1, 1, 1) equations, so 851,968
    # candidates are filtered.  All 8^6 rows as int16 digits would be 3 MB.
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


@pytest.mark.parametrize("m", [6, 7, 8])
def test_associative_tables_match_full_decode(m):
    # Every table number decoded in full, 2^16 numbers at a time, and filtered
    # by the same _associative: the pruned candidates lose no table.
    got = cli._associative_tables(m)
    assert got.dtype == np.int16
    chunk = 1 << 16
    expected = np.concatenate([search_chunk_reference(m, start, chunk)
                               for start in range(0, m ** 8, chunk)])
    assert np.array_equal(got, expected)


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
        run("search", with_task(inst, moduli=moduli))
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
    with open(out1, encoding="utf-8") as f1, open(out2, encoding="utf-8") as f2:
        text1 = f1.read()
        assert text1 == f2.read()
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
# and its raw Jordan stack 6 * 7^2 / 2 * 6^3 = 31752.  On its Peirce support of
# 6 columns, which identities, dprime-check and cross-check solve on, the Jordan
# stack holds 6 * 7^2 / 2 * 6 * 6 = 5292.
@pytest.mark.parametrize("command, entries", [
    ("compare", 31752), ("solve-der", 7776), ("solve-jder", 31752),
    ("identities", 5292), ("dprime-check", 5292), ("cross-check", 5292)])
def test_main_solver_limit_exit_code(tmp_path, capsys, monkeypatch, command, entries):
    refuse_assembly(monkeypatch)
    monkeypatch.setattr(solver, "_SOLVE_LIMIT", 5291)
    assert main([command, "--input", write(tmp_path, CHAIN_INSTANCE)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: the solve needs {entries} raw constraint entries, over the solver limit 5291\n")


@pytest.mark.parametrize("command, labels, pairs, entries", [
    # FI(chain8, Z/2), rank 36: an 8.6 GiB raw Jordan stack.
    ("compare", "a b c d e f g h", "a<=b b<=c c<=d d<=e e<=f f<=g g<=h", 1149697152)])
def test_main_refuses_stacks_over_the_solver_limit(tmp_path, capsys, monkeypatch, command,
                                                   labels, pairs, entries):
    refuse_assembly(monkeypatch)
    text = CHAIN_INSTANCE.replace("labels = a b c", f"labels = {labels}").replace(
        "pairs = a<=b b<=c", f"pairs = {pairs}")
    assert main([command, "--input", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"error: the solve needs {entries} raw constraint entries, "
        "over the solver limit 570949632\n")


# Z/2 x Z/2 x Z/2, a unital rank-3 base.
_RANK3_BASE = ("kind = constants\nmodulus = 2\nrank = 3\nunit = 1 1 1\n"
               "constants =\n  0 0 : 1 0 0\n  1 1 : 0 1 0\n  2 2 : 0 0 1\n")


@pytest.mark.parametrize("command", ["identities", "dprime-check", "cross-check"])
def test_main_refuses_rank48_peirce_stacks_over_the_solver_limit(tmp_path, capsys, monkeypatch,
                                                                  command):
    # M_4 over the rank-3 base, and FI of a 4-cycle over it, have rank 48.  Their Peirce
    # support has 4 * 3 * 3 + 12 * 3 * 6 = 252 of the 48^2 columns, so the restricted Jordan
    # stack holds 48 * 49^2 / 2 * 48 * 252 entries, over the limit.
    refuse_assembly(monkeypatch)
    if command == "cross-check":
        text = (_HEAD + "[preorder]\nlabels = a b c d\npairs = a<=b b<=c c<=d d<=a\n"
                "[ring]\n" + _RANK3_BASE)
    else:
        text = _HEAD + "[ring]\nkind = matrix\nsize = 4\n[ring.base]\n" + _RANK3_BASE
    assert main([command, "--input", write(tmp_path, text)]) == 2
    assert capsys.readouterr().err == (
        f"error: the solve needs {48 * 49 ** 2 // 2 * 48 * 252} raw constraint entries, "
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


_HEAD = "[instance]\nformat_version = 1\n"
_Z2 = "[ring]\nkind = zmod\nmodulus = 2\n"
_TRIANGULAR_SIDES = ("[ring]\nkind = triangular\n[ring.left]\nkind = zmod\nmodulus = 2\n"
                     "[ring.right]\nkind = zmod\nmodulus = 2\n")
_NONUNITAL = "[ring]\nkind = constants\nmodulus = 2\nrank = 2\n"


@pytest.mark.parametrize("command, text, message", [
    ("compare", _HEAD + "[ring]\nkind = zmod\nmodulus = two\n",
     "[ring]: key 'modulus' must be an integer, got 'two'"),
    ("compare", _HEAD + "[preorder]\npairs = a<=b\n" + _Z2, "[preorder]: key 'labels' is required"),
    ("compare", _HEAD + "[preorder]\nlabels = a b\nauto_close = maybe\n" + _Z2,
     "[preorder]: key 'auto_close' must be a boolean"),
    ("compare", _HEAD + "[preorder]\nlabels = a b\npairs = a<=c\n" + _Z2,
     "[preorder]: pair ('a', 'c') mentions an unknown label"),
    ("compare", _HEAD + "[ring]\nkind = matrix\nsize = 2\n",
     "[ring.base]: section is required but missing"),
    ("compare", _HEAD + "[ring]\nkind = octonion\n",
     "[ring]: key 'kind' must be one of ['constants', 'matrix', 'triangular', 'zmod'], got 'octonion'"),
    ("compare", _HEAD + "[ring]\nkind = zmod\n", "[ring]: key 'modulus' is required"),
    ("compare", _HEAD + "[ring]\nkind = matrix\n[ring.base]\nkind = zmod\nmodulus = 2\n",
     "[ring]: key 'size' is required"),
    ("compare", _HEAD + _TRIANGULAR_SIDES, "[ring.module]: section is required but missing"),
    ("compare", _HEAD + _TRIANGULAR_SIDES + "[ring.module]\nrank = 1\nleft_action = 0 0 : 1\n",
     "[ring.module]: key 'right_action' is required"),
    ("compare", _HEAD + _TRIANGULAR_SIDES + "[ring.module]\nrank = -1\nleft_action =\nright_action =\n",
     "[ring.module]: key 'rank' must be nonnegative"),
    ("compare", _HEAD + "[ring]\nkind = constants\nrank = 1\n", "[ring]: key 'modulus' is required"),
    ("compare", _HEAD + "[ring]\nkind = constants\nmodulus = 2\n", "[ring]: key 'rank' is required"),
    ("compare", _HEAD + "[ring]\nkind = constants\nmodulus = 2\nrank = -2\n",
     "[ring]: key 'rank' must be nonnegative"),
    ("compare", "this is not an ini file\n",
     "instance file does not parse: File contains no section headers.\nfile: {path!r}, line: 1\n"
     "'this is not an ini file\\n'"),
    ("identities", _HEAD + _NONUNITAL, "a plain coefficient ring must be unital for this command"),
    ("dprime-check", _HEAD + _NONUNITAL, "a plain coefficient ring must be unital for this command"),
], ids=["non-integer", "preorder-labels", "auto-close", "unknown-label", "matrix-base",
        "unknown-kind", "zmod-modulus", "matrix-size", "triangular-module", "module-key",
        "module-rank", "constants-modulus", "constants-rank", "constants-rank-negative",
        "unparsable", "identities-nonunital", "dprime-check-nonunital"])
def test_main_instance_refusal_exit_code(tmp_path, capsys, command, text, message):
    path = write(tmp_path, text)
    assert main([command, "--input", path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message.format(path=path)}\n"


@pytest.mark.parametrize("command", ["identities", "dprime-check"])
def test_nonunital_plain_ring_is_refused_before_the_solve(tmp_path, capsys, monkeypatch, command):
    calls = []
    monkeypatch.setattr(cli, "_solve_all", lambda *args: calls.append(args))
    assert main([command, "--input", write(tmp_path, _HEAD + _NONUNITAL)]) == 2
    assert calls == []
    assert capsys.readouterr().err == "error: a plain coefficient ring must be unital for this command\n"


_RANK0_INSTANCES = {
    "empty-preorder": _HEAD + "[preorder]\nlabels =\n[ring]\nkind = zmod\nmodulus = 4\n",
    "rank0-constants": _HEAD + "[ring]\nkind = constants\nmodulus = 4\nrank = 0\nunit =\n",
}
_DEGENERATE_INSTANCES = {
    **_RANK0_INSTANCES,
    "nonunital-constants": _HEAD + "[ring]\nkind = constants\nmodulus = 4\nrank = 1\n"
                                   "constants = 0 0 : 2\n",
    "rank0-module": _HEAD + _TRIANGULAR_SIDES + "[ring.module]\nrank = 0\nleft_action =\n"
                                                "right_action =\n",
    "negative-seed": CHAIN_INSTANCE + "[task]\nmode = randomized\nseed = -7\ntrials = 5\n",
}


@pytest.mark.parametrize("name", _DEGENERATE_INSTANCES)
@pytest.mark.parametrize("command", cli.COMMANDS)
def test_every_command_ends_without_a_traceback(tmp_path, capsys, command, name):
    # In process, an exception escaping main is what the jder script reports as
    # exit 1 with a traceback; this test fails on it.
    path = write(tmp_path, _DEGENERATE_INSTANCES[name])
    code = main([command, "--input", path, "--out", str(tmp_path / "report.json")])
    assert code in ((0, 2) if name in _RANK0_INSTANCES else (0, 2, 3))
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("name", _RANK0_INSTANCES)
@pytest.mark.parametrize("command", ["identities", "dprime-check", "cross-check"])
def test_rank0_targets_have_no_generator_to_check(tmp_path, command, name):
    inst = load_instance(write(tmp_path, _RANK0_INSTANCES[name]))
    if command == "cross-check" and inst.preorder is None:
        with pytest.raises(InstanceError, match="needs a \\[preorder\\] section"):
            run(command, inst)
        return
    result = run(command, inst)["result"]
    if command == "cross-check":
        assert result["fi_rank"] == 0 and result["consistent"]
        assert result["fi_comparison"]["jordan"]["basis"]["generators"] == []
    else:
        assert result == {"generators": [], "ok": True}


@pytest.mark.parametrize("argv", [[], ["--input", "x.ini"], ["summon", "--input", "x.ini"],
                                  ["compare"]],
                         ids=["nothing", "no-command", "unknown-command", "no-input"])
def test_main_usage_errors_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: jder ")


def test_run_refuses_an_unknown_command(tmp_path):
    # main's parser admits only declared commands; an Instance built in code can reach run.
    with pytest.raises(InstanceError, match=r"^unknown command 'summon'$"):
        run("summon", load_instance(write(tmp_path, MATRIX_INSTANCE)))
