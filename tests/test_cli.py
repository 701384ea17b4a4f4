"""End-to-end command-line checks run through main() with argv lists."""

import contextlib
import copy
import io
import json
import math
import re
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ocrslab import suite
from ocrslab.cli import _objective_value, instance_from_dict, instance_to_dict, load_instance, main
from ocrslab.graphcore import check_polytope, generate_family
from ocrslab.lp import auto_objective, build_lp_pricing, solve_lp


def _gen(tmp_path, family, *extra):
    out = tmp_path / f"{family.replace('-', '_')}.json"
    assert main(["gen", "--family", family, "--out", str(out), *extra]) == 0
    return out


# ---------------------------------------------------------------------------
# gen + file format


def test_gen_roundtrip(tmp_path):
    out = _gen(tmp_path, "tight-path3", "--n", "4")
    inst, x = load_instance(str(out))
    gen = generate_family("tight_path3", n=4)
    assert inst == gen.instance
    assert x == gen.x
    # serialization is stable through a dict round trip
    assert instance_from_dict(instance_to_dict(inst, x)) == (inst, x)


def test_gen_families_and_aliases(tmp_path):
    _gen(tmp_path, "star", "--k", "3")
    _gen(tmp_path, "triangle", "--x", "0.5,0.4,0.4")
    _gen(tmp_path, "random-bipartite", "--n", "3", "--m", "3", "--density", "0.5", "--seed", "5")
    _gen(tmp_path, "d1", "--eps", "0.01")
    _gen(tmp_path, "d2", "--N", "10", "--k", "3")
    _gen(tmp_path, "single-edge-hard", "--k", "6", "--grid", "0,1,2,3,4,5")


@pytest.mark.parametrize("family, extra", [
    ("star", ["--k", "2.5"]),
    ("d2", ["--N", "10", "--k", "3.7"]),
])
def test_gen_refuses_a_fractional_count(tmp_path, family, extra):
    # a fractional k used to be truncated to a 2-star or k = 3
    out = tmp_path / "frac.json"
    assert main(["gen", "--family", family, *extra, "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("extra", [
    ["--family", "single-edge-hard", "--k", "nan", "--grid", "0"],
    ["--family", "single-edge-hard", "--k", "inf", "--grid", "0"],
    ["--family", "triangle", "--x", "nan,0.1,0.1"],
])
def test_gen_writes_only_strict_json(tmp_path, capsys, extra):
    # these wrote NaN or Infinity, which no strict JSON reader (ocrslab lp
    # included) accepts
    out = tmp_path / "bad.json"
    assert main(["gen", *extra, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


@pytest.mark.parametrize("extra, names", [
    (["--family", "star"], "missing parameter(s) k"),
    (["--family", "random_bipartite", "--n", "3"], "missing parameter(s) m, density, seed"),
    (["--family", "star", "--k", "3", "--n", "5"], "unexpected parameter(s) n"),
])
def test_gen_names_missing_and_unexpected_parameters(tmp_path, capsys, extra, names):
    # these ended in a TypeError traceback
    out = tmp_path / "bad.json"
    assert main(["gen", *extra, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: family ") and err.rstrip().endswith(names)
    assert not out.exists()


def test_gen_unknown_family(tmp_path):
    out = tmp_path / "nope.json"
    assert main(["gen", "--family", "moebius", "--out", str(out)]) == 1
    assert not out.exists()


def test_gen_pricing_families_have_no_marginals(tmp_path):
    out = _gen(tmp_path, "d1", "--eps", "0.01")
    _, x = load_instance(str(out))
    assert x is None


def test_corrupt_instance_rejected(tmp_path):
    out = _gen(tmp_path, "star", "--k", "3")
    doc = json.loads(out.read_text())
    doc["edges"][0]["u"] = "ghost"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["simulate", "--instance", str(bad), "--scheme", "ro-ocrs"]) == 1


@pytest.mark.parametrize(
    "break_doc, message",
    [
        (lambda doc: doc["edges"][0].pop("menu"), "edges[0]: missing key 'menu'"),
        (lambda doc: doc.pop("vertices"), "instance: missing key 'vertices'"),
        (lambda doc: doc.update(edges={"e0": doc["edges"][0]}), "instance: 'edges' has the wrong type"),
        (lambda doc: doc["edges"][0]["menu"][0].update(w=math.nan), "edges[0].menu[0]: 'w' is not a finite number"),
        (lambda doc: doc["vertices"][0].update(patience=10**400), "vertices[0]: 'patience' is not a finite number"),
        (lambda doc: doc["x"].append({"edge": "e0", "value": 0.9}), "x[3]: a second entry for edge 'e0'"),
        (lambda doc: doc["x"].append({"edge": "ghost", "value": 0.1}), "x[3]: unknown edge 'ghost'"),
    ],
    ids=[
        "no-menu", "no-vertices", "edges-not-a-list", "nan-weight", "patience-beyond-float",
        "x-twice-for-one-edge", "x-for-no-edge",
    ],
)
def test_malformed_instance_file_is_a_clean_error(tmp_path, capsys, break_doc, message):
    doc = json.loads(_gen(tmp_path, "star", "--k", "3").read_text())
    break_doc(doc)
    with pytest.raises(ValueError, match=re.escape(message)):
        instance_from_dict(doc)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["lp", "--instance", str(bad), "--out", str(tmp_path / "p.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


# ---------------------------------------------------------------------------
# lp


def test_lp_writes_point(tmp_path):
    inst_path = _gen(tmp_path, "random_bipartite", "--n", "3", "--m", "3",
                     "--density", "0.6", "--seed", "11")
    out = tmp_path / "point.json"
    assert main(["lp", "--instance", str(inst_path), "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"objective", "y", "x"}
    assert doc["objective"] > 0
    inst, _ = load_instance(str(inst_path))
    point_x = {row["edge"]: row["value"] for row in doc["x"]}
    assert set(point_x) <= {e.id for e in inst.edges}


def test_lp_objective_is_the_sum_over_its_own_point():
    # `lp --reduce` reports the reduced point's objective by the same sum;
    # on the LP's own point the two agree bit for bit, drift-guarded entries
    # included (n = 4, seed 12 and n = 6, seed 25 clamp an entry of order -1e-16)
    for n in (3, 4, 6, 8):
        for seed in range(60):
            inst = generate_family("random_bipartite", n=n, m=n, density=0.6, seed=seed).instance
            objective = auto_objective(inst)
            sol = solve_lp(build_lp_pricing(inst, objective))
            assert _objective_value(sol.point, inst, objective) == sol.objective, (n, seed)


def test_lp_default_out_and_reductions(tmp_path):
    inst_path = _gen(tmp_path, "single-edge-hard", "--k", "6", "--grid", "0,1,2,3,4")
    assert main(["lp", "--instance", str(inst_path), "--reduce", "two-weight"]) == 0
    default_out = inst_path.with_suffix(".point.json")
    assert default_out.exists()
    doc = json.loads(default_out.read_text())
    weights_used = {row["edge"] for row in doc["y"]}
    assert len(doc["y"]) <= 2 * len(weights_used)
    assert main(["lp", "--instance", str(inst_path), "--reduce", "single-weight"]) == 0
    doc = json.loads(default_out.read_text())
    assert len(doc["y"]) <= 1


@pytest.mark.filterwarnings("error")
def test_lp_overflow_is_a_clean_error(tmp_path, capsys):
    # two menu values of 1.5e308 used to overflow the simplex pivots, print
    # numpy warnings and write "objective": Infinity with exit 0
    doc = json.loads(_gen(tmp_path, "star", "--k", "3").read_text())
    for edge in doc["edges"][:2]:
        edge["menu"][0]["c"] = 1.5e308
    path = tmp_path / "beyond.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "p.json"
    capsys.readouterr()
    assert main(["lp", "--instance", str(path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: simplex: overflow")
    assert not out.exists()


def test_lp_takes_integer_values_beyond_int64(tmp_path):
    # an integer menu value is a float-range number like any other, even one
    # too large for a 64-bit integer
    doc = json.loads(_gen(tmp_path, "star", "--k", "3").read_text())
    for c, objective in ((-(2**63) - 1, 2 / 3), (2**70, 2.0**70)):
        doc["edges"][2]["menu"][0]["c"] = c
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "p.json"
        assert main(["lp", "--instance", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["objective"] == pytest.approx(objective)


# ---------------------------------------------------------------------------
# simulate


def test_simulate_outputs_and_reruns_identical(tmp_path):
    inst_path = _gen(tmp_path, "tight-path3", "--n", "4")
    prefix = tmp_path / "run"
    argv = ["simulate", "--instance", str(inst_path), "--scheme", "ro-ocrs",
            "--attenuation", "a1", "--trials", "4000", "--seed", "9",
            "--out", str(prefix)]
    assert main(argv) == 0
    csv1 = (tmp_path / "run.csv").read_bytes()
    json1 = (tmp_path / "run.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "run.csv").read_bytes() == csv1
    assert (tmp_path / "run.json").read_bytes() == json1
    summary = json.loads(json1)
    assert summary["trials"] == 4000 and summary["seed"] == 9
    assert 0 < summary["min_ratio"] <= 1
    lines = csv1.decode().splitlines()
    assert lines[0] == "edge_id,x_e,freq,ci_lo,ci_hi,freq_r0,freq_r1,ratio"
    assert len(lines) == 1 + 3  # header + one row per edge of the 4-vertex chain


def test_simulate_pricing_reports_revenue(tmp_path):
    inst_path = _gen(tmp_path, "d1", "--eps", "0.01")
    prefix = tmp_path / "rev"
    assert main(["simulate", "--instance", str(inst_path), "--scheme", "pricing",
                 "--trials", "3000", "--seed", "1", "--out", str(prefix)]) == 0
    summary = json.loads((tmp_path / "rev.json").read_text())
    assert summary["revenue_mean"] > 0


def test_simulate_scheme_input_errors(tmp_path):
    # ro-ocrs needs embedded marginals
    d1 = _gen(tmp_path, "d1", "--eps", "0.01")
    assert main(["simulate", "--instance", str(d1), "--scheme", "ro-ocrs"]) == 1
    # stochastic needs single-entry menus
    star = _gen(tmp_path, "star", "--k", "3")
    doc = json.loads(star.read_text())
    doc["edges"][0]["menu"].append({"w": 1.0, "p": 0.1})
    multi = tmp_path / "multi.json"
    multi.write_text(json.dumps(doc))
    assert main(["simulate", "--instance", str(multi), "--scheme", "stochastic"]) == 1
    # vertex arrival needs side tags
    gen = _gen(tmp_path, "random_general", "--n", "5", "--density", "0.5", "--seed", "2")
    assert main(["simulate", "--instance", str(gen), "--scheme", "vertex"]) == 1
    # marginals must lie in the matching polytope
    for value in (-0.5, 1.5):
        doc = json.loads(star.read_text())
        doc["x"][0]["value"] = value
        off = tmp_path / "off.json"
        off.write_text(json.dumps(doc))
        for scheme in ("ro-ocrs", "vertex", "stochastic"):
            assert main(["simulate", "--instance", str(off), "--scheme", scheme]) == 1


def test_simulate_rejects_nonpositive_trials(tmp_path):
    star = _gen(tmp_path, "star", "--k", "3")
    assert main(["simulate", "--instance", str(star), "--scheme", "ro-ocrs",
                 "--trials", "0"]) == 2


@pytest.mark.parametrize("seed", ["-5", str(2**64)])
def test_simulate_seed_outside_uint64(tmp_path, capsys, seed):
    # the seed is a uint64 stream key; these used to end in an OverflowError
    star = _gen(tmp_path, "star", "--k", "3")
    capsys.readouterr()
    assert main(["simulate", "--instance", str(star), "--scheme", "ro-ocrs",
                 "--trials", "100", "--seed", seed, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.startswith("error: seed must lie in [0, 2**64)")


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_simulate_refuses_fewer_than_one_worker(tmp_path, capsys, workers):
    # these used to run serially and exit 0
    star = _gen(tmp_path, "star", "--k", "3")
    capsys.readouterr()
    assert main(["simulate", "--instance", str(star), "--scheme", "ro-ocrs", "--trials", "100",
                 "--workers", workers, "--out", str(tmp_path / "run")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: workers must be >= 1, got {workers}") and "Traceback" not in err
    assert not (tmp_path / "run.csv").exists()


def test_simulate_missing_file(tmp_path):
    assert main(["simulate", "--instance", str(tmp_path / "gone.json"),
                 "--scheme", "ro-ocrs"]) == 1


def test_simulate_patience_beyond_int32(tmp_path):
    # a budget of at least a vertex's degree never binds, however large
    doc = json.loads(_gen(tmp_path, "star", "--k", "3").read_text())
    for v in doc["vertices"]:
        v["patience"] = 3_000_000_000
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(doc))
    for v in doc["vertices"]:
        del v["patience"]
    free = tmp_path / "free.json"
    free.write_text(json.dumps(doc))
    for inst in (huge, free):
        assert main(["simulate", "--instance", str(inst), "--scheme", "stochastic",
                     "--trials", "2000", "--seed", "3", "--out", str(tmp_path / f"run_{inst.stem}")]) == 0
    for ext in (".csv", ".json"):
        assert (tmp_path / f"run_huge{ext}").read_bytes() == (tmp_path / f"run_free{ext}").read_bytes()
    assert main(["simulate", "--instance", str(huge), "--scheme", "pricing",
                 "--trials", "200", "--out", str(tmp_path / "priced")]) == 0


def test_simulate_revenue_near_the_float_limit(tmp_path, capsys):
    # one menu value of 4.47e153 used to overflow the sum of squared revenues
    # and report an interval of 0.0 with exit 0
    doc = json.loads(_gen(tmp_path, "star", "--k", "3").read_text())
    doc["edges"][0]["menu"][0]["c"] = 4.47e153
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["simulate", "--instance", str(path), "--scheme", "pricing",
                 "--trials", "50", "--out", str(tmp_path / "run_huge")]) == 0
    summary = json.loads((tmp_path / "run_huge.json").read_text())
    assert 1e153 < summary["revenue_mean"] < 4.47e153 / 0.3
    assert 1e152 < summary["revenue_ci"] < summary["revenue_mean"]
    # a reward beyond the float range is an error, not a report
    doc["edges"][0]["menu"][0]["c"] = 1.5e308
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["simulate", "--instance", str(path), "--scheme", "pricing",
                 "--trials", "50", "--out", str(tmp_path / "run_beyond")]) == 1
    assert capsys.readouterr().err.startswith("error:")


# ---------------------------------------------------------------------------
# malformed instance files: a clean error or a normal run, never a traceback

_NUMBERS = st.one_of(
    st.sampled_from([-1, 0, 2**31, 2**63, 3_000_000_000, 10**400, -(10**400), math.nan, math.inf]),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
)
_WRONG_TYPES = st.one_of(
    st.booleans(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 2), max_size=2),
    st.dictionaries(st.sampled_from(["id", "w", "p"]), st.integers(-2, 2), max_size=2),
)


def _paths(node, path=()):
    """Every location in a JSON document, the root included."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


# a bipartite star with marginals, single-entry menus and one patience budget:
# every scheme runs on it unedited
_STAR = generate_family("star", k=3)
_DOC = instance_to_dict(_STAR.instance, _STAR.x)
_DOC["vertices"][0]["patience"] = 1
_PATHS = list(_paths(_DOC))
# a numeric field set to any number, or any location deleted (None) or given
# a value of the wrong type
_EDIT = st.one_of(
    st.tuples(st.sampled_from([p for p in _PATHS if type(_at(_DOC, p)) in (int, float)]), _NUMBERS),
    st.tuples(st.sampled_from(_PATHS), st.none() | _WRONG_TYPES),
)


def _edited(path, value):
    if not path:
        return value
    doc = copy.deepcopy(_DOC)
    if value is None:
        del _at(doc, path[:-1])[path[-1]]
    else:
        _at(doc, path[:-1])[path[-1]] = value
    return doc


@settings(max_examples=150, deadline=None)
@given(
    edit=_EDIT,
    scheme=st.sampled_from(["ro-ocrs", "stochastic", "vertex", "pricing"]),
    trials=st.integers(1, 50),
)
def test_simulate_fuzzed_instance_files(edit, scheme, trials):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "inst.json"
        path.write_text(json.dumps(_edited(*edit)))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["simulate", "--instance", str(path), "--scheme", scheme,
                         "--trials", str(trials), "--out", str(Path(tmp) / "run")])
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("error:")


# ---------------------------------------------------------------------------
# bounds + verify-facts


def test_bounds_writes_certificate(tmp_path, capsys):
    out = tmp_path / "cert.json"
    assert main(["bounds", "--setting", "one-sided", "--alpha", "0.162",
                 "--out", str(out)]) == 0
    cert = json.loads(out.read_text())
    assert cert["setting"] == "patience_one_sided"
    assert cert["alpha"] == 0.162
    assert cert["minimum"] > 0.4
    assert "patience_one_sided" in capsys.readouterr().out


def test_bounds_unknown_setting(tmp_path):
    assert main(["bounds", "--setting", "sideways", "--alpha", "0.1"]) == 1


def test_verify_facts_csv(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert main(["verify-facts"]) == 0
    lines = (tmp_path / "facts.csv").read_text().splitlines()
    assert lines[0] == "fact_id,holds,margin"
    assert len(lines) >= 13  # header + the full battery
    assert all(row.split(",")[1] == "true" for row in lines[1:])


# ---------------------------------------------------------------------------
# suite (smoke only: statistical criteria need large trial counts)

# criteria 2-9 at 400 trials, master seed 0, timings stripped as CI strips
# them; criteria 3 and 4 fail at this size
SUITE_SMOKE_LINES = [
    "criterion 1 [PASS] fact battery: 12/12 rows hold, worst margin +0.00e+00",
    "criterion 2 [PASS] minimization certificates: general=0.4502, bipartite=0.4561, patience_general=0.3959, patience_one_sided=0.4260",
    "criterion 3 [FAIL] tightness reproduction: middle-edge ratio 0.5000 vs 0.4323 ± 0.006",
    "criterion 4 [FAIL] star optimality: worst star-edge ratio 0.5000 vs floor 0.6261",
    "criterion 5 [PASS] balancedness floors: worst slack general+0.2696, bipartite+0.3516, stochastic+0.3261, one-sided+0.3613, vertex+0.5117, trivial+0.5031",
    "criterion 6 [PASS] oracle equivalence: 13 instances, worst slack +5.04e-02 (4 CI half-widths)",
    "criterion 7 [PASS] LP dominance and pricing approximation: 22 DP instances, worst LP-DP +0.00e+00; worst revenue slack +0.1693 of 0.45×LP",
    "criterion 8 [PASS] greedy separations: d1 by_weight 0.02 vs optimum 1.000; d2 by_expected_weight 1.01 vs high-to-low 3.89 (k=3), 6.89 (k=6)",
    "criterion 9 [PASS] event decomposition: worst slack +2.35e-02 (no patience), +2.39e-02 (patience)",
]


def test_suite_smoke(tmp_path, capsys, monkeypatch):
    seeds = []
    real = suite.monte_carlo

    def spy(engine, trials, master_seed, **kw):
        seeds.append(master_seed)
        return real(engine, trials, master_seed, **kw)

    monkeypatch.setattr(suite, "monte_carlo", spy)
    out = tmp_path / "suite.json"
    code = main(["suite", "--trials", "400", "--seed", "0", "--out", str(out)])
    # run n takes the master seed + 7919·n, criterion 3's run first
    assert seeds == [7919 * n for n in range(87)]
    text = capsys.readouterr().out
    stripped = [re.sub(r", [0-9]+\.[0-9]s$", "", line) for line in text.splitlines()]
    # criterion 1's worst margin is an exact zero, stored as +0.0
    assert stripped[:9] == SUITE_SMOKE_LINES
    results = json.loads(out.read_text())
    assert len(results) == 9
    assert [str(r["ident"]) for r in results] == [str(i) for i in range(1, 10)]
    for r in results:
        assert set(r) >= {"ident", "name", "passed", "detail"}
        assert f"criterion {r['ident']}" in text
    all_pass = all(r["passed"] for r in results)
    assert code == (0 if all_pass else 1)


def test_suite_seed_outside_uint64(capsys):
    assert main(["suite", "--trials", "10", "--seed", "-5"]) == 1
    assert capsys.readouterr().err.startswith("error: seed must lie in [0, 2**64)")


def test_suite_refuses_a_seed_whose_derived_seeds_overflow_up_front(capsys, monkeypatch):
    # these used to run criteria 1-3 and then fail on a derived seed; run 86,
    # the last, takes the master seed + 7919·86
    top = 18446744073708870581
    assert top == 2**64 - 1 - 7919 * 86
    facts = []
    monkeypatch.setattr(suite.bounds, "verify_facts", lambda *args: facts.append(args))
    for seed in (top + 1, 2**64 - 1):
        t0 = time.perf_counter()
        assert main(["suite", "--trials", "10", "--seed", str(seed)]) == 1
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: seed must lie in [0, 2**64)") and "Traceback" not in err
        assert f"the largest master seed accepted is {top}, got {seed}" in err
    assert facts == []


def test_suite_refuses_nonpositive_trials_up_front(capsys, monkeypatch):
    # this used to run the fact battery and the certificates first
    facts = []
    real = suite.bounds.verify_facts

    def spy(*args, **kwargs):
        facts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(suite.bounds, "verify_facts", spy)
    assert main(["suite", "--trials", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: trials must be >= 1") and "Traceback" not in err
    assert facts == []


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_suite_refuses_fewer_than_one_worker_up_front(capsys, monkeypatch, workers):
    # these used to run the whole battery serially
    facts = []
    real = suite.bounds.verify_facts

    def spy(*args, **kwargs):
        facts.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(suite.bounds, "verify_facts", spy)
    assert main(["suite", "--trials", "10", "--workers", workers]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: workers must be >= 1, got {workers}") and "Traceback" not in err
    assert facts == []


# ---------------------------------------------------------------------------
# generated marginals stay feasible through the file format


def test_loaded_marginals_feasible(tmp_path):
    for family, extra in [
        ("tight-path3", ["--n", "10"]),
        ("star", ["--k", "5"]),
        ("random_general", ["--n", "6", "--density", "0.5", "--seed", "4"]),
    ]:
        path = _gen(tmp_path, family, *extra)
        inst, x = load_instance(str(path))
        assert x is not None
        assert check_polytope(x, inst).ok


def test_simulate_stochastic_menu_probability_guard(tmp_path):
    star = _gen(tmp_path, "star", "--k", "3")
    doc = json.loads(star.read_text())
    eid = doc["edges"][0]["id"]
    for row in doc["x"]:
        if row["edge"] == eid:
            row["value"] = doc["edges"][0]["menu"][0]["p"] + 0.05
    bad = tmp_path / "overload.json"
    bad.write_text(json.dumps(doc))
    rc = main(["simulate", "--instance", str(bad), "--scheme", "stochastic"])
    assert rc == 1


def test_cli_requires_subcommand():
    with pytest.raises(SystemExit):
        main([])


def test_triangle_rejects_infeasible_x(tmp_path):
    out = tmp_path / "tri.json"
    assert main(["gen", "--family", "triangle", "--x", "0.8,0.8,0.8",
                 "--out", str(out)]) == 1


def test_instance_files_end_with_newline(tmp_path):
    out = _gen(tmp_path, "star", "--k", "2")
    assert out.read_bytes().endswith(b"\n")
    assert not math.isnan(json.loads(out.read_text())["x"][0]["value"])
