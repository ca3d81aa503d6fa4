import pytest

from cauchydos import checks
from cauchydos.checks import (
    CHECK_NAMES,
    CheckReport,
    check_analytic_strip,
    check_bethe_dos,
    check_charfn_identity,
    check_continuum_ids,
    check_dos_identity,
    check_semigroup,
    run_check,
)
from cauchydos.measures import EnergyGrid


def test_semigroup_check_passes():
    report = check_semigroup()
    assert report.passed
    assert report.metrics["sup_dist"] <= 1e-4
    assert report.thresholds["sup_dist"] == 1e-4


@pytest.mark.parametrize("d", [2, 3, 4])
def test_semigroup_check_passes_on_higher_dimensional_lattices(d):
    # the Z^2 and Z^3 closed forms and the d=4 time integral, each against the
    # grid convolution on a 12,001-point grid
    report = check_semigroup(d=d)
    assert report.passed
    assert report.parameters["d"] == d
    assert report.metrics["sup_dist"] <= 1e-4


def test_semigroup_forced_failure():
    report = run_check("semigroup", threshold_override=0.0)
    assert report.thresholds == {"sup_dist": 0.0}
    assert not report.passed


def test_analytic_strip_check_passes():
    report = check_analytic_strip()
    assert report.passed
    assert report.metrics["max_cr_residual"] <= 1e-5
    assert report.metrics["outside_strip_misses"] == 0.0


def test_charfn_check_small_configuration():
    report = check_charfn_identity(side=128, n_samples=40, t_max=3.0, seed=1)
    assert report.passed
    assert report.thresholds == {"excess_ratio": 1.0}
    assert report.metrics["excess_ratio"] <= 1.0
    assert report.parameters["side"] == 128


def test_charfn_check_offdiagonal_variant():
    report = check_charfn_identity(side=128, n_samples=40, t_max=3.0, seed=1, psi_offset=1)
    assert report.passed


def test_dos_check_small_configuration():
    # the frozen thresholds are set for the acceptance scale; this smaller
    # configuration is held to looser bounds on its metrics
    report = check_dos_identity(side=256, n_samples=40, grid=EnergyGrid(-4.0, 4.0, 0.1),
                                seed=1)
    assert report.thresholds == {"sup_dist": 0.005, "max_z": 4.0, "z_p95": 2.5}
    assert report.parameters["estimator"] == "trace"
    assert report.metrics["sup_dist"] <= 0.03
    assert report.metrics["max_z"] <= 4.5
    assert report.metrics["z_p95"] <= 2.5


def test_dos_check_two_dimensional_variant():
    # smaller volume, relaxed z cap
    report = check_dos_identity(d=2, side=45, n_samples=100,
                                grid=EnergyGrid(-6.0, 6.0, 0.05), seed=0)
    assert report.metrics["sup_dist"] <= 0.02
    assert report.metrics["max_z"] <= 5.0
    assert report.metrics["z_p95"] <= 2.5


def test_bethe_check_small_depth_passes():
    report = check_bethe_dos(depth=9, n_samples=30, seed=2,
                             grid=EnergyGrid(-2.5, 2.5, 0.1))
    assert report.passed
    assert report.thresholds == {"sup_corrected": 0.01}
    assert report.metrics["bias_sup"] > 0.0


def test_continuum_check_small_configuration():
    # a box of 40 is held to 0.1 on both metrics, not to the frozen thresholds
    report = check_continuum_ids(box=40, h=0.1, n_samples=12, seed=3,
                                 e_grid=EnergyGrid(0.0, 4.0, 0.25))
    assert report.thresholds == {"sup_dist": 0.02, "free_sup_dist": 0.01}
    assert report.metrics["sup_dist"] < 0.1
    assert report.metrics["free_sup_dist"] <= 0.1


def test_report_pass_flag_is_pure_function_of_metrics():
    report = check_semigroup()
    recomputed = all(report.metrics[k] <= report.thresholds[k] for k in report.thresholds)
    assert report.passed == recomputed


def test_report_json_is_deterministic_and_omits_runtime():
    a = check_semigroup()
    b = check_semigroup()
    assert a.to_json_dict() == b.to_json_dict()
    payload = a.to_json_dict()
    assert "runtime" not in " ".join(payload.keys())
    assert set(payload) == {"name", "parameters", "metrics", "thresholds", "passed", "seed"}
    assert a.runtime_seconds > 0.0


def test_run_check_dispatch_and_unknown_name():
    report = run_check("strip")
    assert report.name == "strip"
    with pytest.raises(KeyError):
        run_check("nope")


def test_run_check_calls_the_check_bound_at_call_time(monkeypatch):
    # the benchmark tracer rebinds checks.check_* and relies on run_check seeing it
    sentinel = CheckReport("semigroup", {}, {"sup_dist": 0.0}, {"sup_dist": 1e-4}, None)
    monkeypatch.setattr(checks, "check_semigroup", lambda: sentinel)
    assert run_check("semigroup") is sentinel


# each check at a small size, with the parameters, seed and thresholds its
# report records: every argument with defaults applied, grids and tuples as
# lists, then the check's constants; the seed never among the parameters
RECORDED = {
    "semigroup": (check_semigroup, {},
                  {"lam1": 0.5, "lam2": 0.5, "d": 1, "window": 8.0}, None,
                  {"sup_dist": 1e-4}),
    "strip": (check_analytic_strip, {"heights": (0.1, -0.2)},
              {"d": 1, "lam": 1.0, "heights": [0.1, -0.2],
               "e_points": [-3.0, -1.0, 0.0, 1.5, 3.0], "fd_step": 1e-4}, None,
              {"max_cr_residual": 1e-5, "outside_strip_misses": 0.5}),
    "charfn": (check_charfn_identity,
               {"side": 128, "n_samples": 40, "t_max": 3.0, "seed": 1, "psi_offset": 1},
               {"d": 1, "lam": 1.0, "side": 128, "n_samples": 40, "t_max": 3.0,
                "t_step": 0.1, "psi_offset": 1}, 1,
               {"excess_ratio": 1.0}),
    "dos": (check_dos_identity,
            {"side": 256, "n_samples": 40, "grid": EnergyGrid(-4.0, 4.0, 0.1), "seed": 1},
            {"d": 1, "lam": 1.0, "eta": 0.1, "side": 256, "n_samples": 40,
             "grid": [-4.0, 4.0, 0.1], "estimator": "trace"}, 1,
            {"sup_dist": 0.005, "max_z": 4.0, "z_p95": 2.5}),
    "bethe": (check_bethe_dos,
              {"depth": 9, "n_samples": 30, "seed": 2, "grid": EnergyGrid(-2.5, 2.5, 0.1)},
              {"K": 2, "lam": 1.0, "eta": 0.1, "depth": 9, "n_samples": 30,
               "grid": [-2.5, 2.5, 0.1]}, 2,
              {"sup_corrected": 0.01}),
    "continuum-ids": (check_continuum_ids,
                      {"box": 40, "h": 0.1, "n_samples": 12, "seed": 3,
                       "e_grid": EnergyGrid(0.0, 4.0, 0.25)},
                      {"lam": 0.2, "box": 40, "h": 0.1, "n_samples": 12,
                       "e_grid": [0.0, 4.0, 0.25]}, 3,
                      {"sup_dist": 0.02, "free_sup_dist": 0.01}),
}


@pytest.mark.parametrize("name", list(RECORDED))
def test_report_records_the_call_and_the_frozen_thresholds(name):
    check, kwargs, parameters, seed, thresholds = RECORDED[name]
    report = check(**kwargs)
    assert report.name == name
    assert report.parameters == parameters
    assert "seed" not in report.parameters
    assert report.seed == seed
    assert report.thresholds == thresholds
    assert all(type(v) is float for v in {**report.metrics, **report.thresholds}.values())


def test_run_check_runs_the_bound_check_and_seeds_only_the_sampled_ones(monkeypatch):
    functions = {"semigroup": "check_semigroup", "strip": "check_analytic_strip",
                 "charfn": "check_charfn_identity", "dos": "check_dos_identity",
                 "bethe": "check_bethe_dos", "continuum-ids": "check_continuum_ids"}
    assert CHECK_NAMES == tuple(functions)
    calls = []

    def stub(name):
        def record(*args, **kwargs):
            calls.append((name, args, kwargs))
            return CheckReport(name, {}, {"m": 0.5}, {"m": 1.0}, kwargs.get("seed"))
        return record

    for name, function in functions.items():
        monkeypatch.setattr(checks, function, stub(name))
    for name in CHECK_NAMES:
        report = run_check(name, seed=7, threshold_override=0.25)
        assert report.name == name
        assert report.thresholds == {"m": 0.25}
    seeded = {"charfn", "dos", "bethe", "continuum-ids"}
    assert calls == [(name, (), {"seed": 7} if name in seeded else {}) for name in CHECK_NAMES]


def test_table_row_mentions_status():
    report = CheckReport("demo", {}, {"m": 0.5}, {"m": 1.0}, None, 0.1)
    assert "PASS" in report.table_row()
    report_bad = CheckReport("demo", {}, {"m": 2.0}, {"m": 1.0}, None, 0.1)
    assert "FAIL" in report_bad.table_row()
