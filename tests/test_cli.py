import json
import math
import subprocess
import sys
import textwrap

import pytest
from conftest import child_env
from scipy.special import jv

from cauchydos.cli import main
from cauchydos.ensemble import LatticeBoxSpec, TreeSpec
from cauchydos.errors import CapExceededError
from cauchydos.measures import MAX_GRID_POINTS, CauchyKernel, EnergyGrid
from cauchydos.spectra import charfn_mc, dos_mc


def run_cli(args, tmp_path, env_extra=None):
    env = child_env()
    env.setdefault("CAUCHYDOS_THREADS", "1")
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cauchydos.cli", *args],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_exact_lattice_curve_value(tmp_path):
    rc = main(["exact", "--model", "lattice", "--dim", "1", "--lambda", "1",
               "--grid", "-6:6:0.01", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exact_lattice_d1.csv")
    assert header == ["energy", "density"]
    at_zero = [float(r[1]) for r in rows if abs(float(r[0])) < 1e-12]
    assert len(at_zero) == 1
    assert abs(at_zero[0] - 1.0 / (math.pi * math.sqrt(5.0))) < 1e-6
    manifest = json.loads((tmp_path / "exact_lattice_d1_manifest.json").read_text())
    assert manifest["subcommand"] == "exact"
    assert manifest["parameters"]["lambda"] == 1.0
    assert manifest["outputs"] == ["exact_lattice_d1.csv"]


def test_exact_bethe_small_lambda_limit(tmp_path):
    rc = main(["exact", "--model", "bethe", "--k", "2", "--lambda", "0.001",
               "--grid", "-3:3:0.5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exact_bethe_k2.csv")
    at_zero = [float(r[1]) for r in rows if abs(float(r[0])) < 1e-12][0]
    assert abs(at_zero - 0.15005) < 1e-2


def test_exact_continuum_writes_ids(tmp_path):
    rc = main(["exact", "--model", "continuum", "--lambda", "0.2",
               "--grid", "0:2:0.5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "exact_continuum.csv")
    assert header == ["energy", "ids"]
    at_one = [float(r[1]) for r in rows if abs(float(r[0]) - 1.0) < 1e-12][0]
    assert abs(at_one - 0.31988194865360675) < 1e-6


def test_missing_lambda_is_usage_error(tmp_path):
    proc = run_cli(["exact", "--model", "lattice", "--grid", "-1:1:0.5"], tmp_path)
    assert proc.returncode == 2
    assert "usage" in (proc.stderr + proc.stdout).lower()


def test_exact_takes_no_seed(tmp_path):
    # exact curves draw no samples, so there is no seed to set
    proc = run_cli(["exact", "--model", "lattice", "--lambda", "1", "--grid", "-1:1:0.5",
                    "--seed", "1", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 2
    assert "unrecognized arguments: --seed" in proc.stderr


def test_bad_grid_is_usage_error(tmp_path):
    proc = run_cli(["exact", "--model", "lattice", "--lambda", "1", "--grid", "nope"],
                   tmp_path)
    assert proc.returncode == 2


@pytest.mark.parametrize("grid", ["-.5:1:0.5", "-1e-1:1:0.5", "-6:6:0.01"])
def test_dash_grids_parse_as_values(tmp_path, capsys, grid):
    # a leading dash before a digit or .digit begins a grid, as after --grid=
    for option, argv, stem in (
            ("--grid", ["exact", "--model", "lattice", "--lambda", "1"], "exact_lattice_d1"),
            ("--t-grid", ["charfn", "--size", "8", "--samples", "2", "--lambda", "1"],
             "charfn_lattice")):
        written = []
        for spelling in ([option, grid], [f"{option}={grid}"]):
            out = tmp_path / f"{stem}{len(written)}"
            assert main([*argv, *spelling, "--out", str(out)]) == 0
            written.append((out / f"{stem}.csv").read_bytes())
        assert written[0] == written[1]
    with pytest.raises(SystemExit) as exc:
        main(["exact", "-h"])
    assert exc.value.code == 0
    assert "usage: cauchydos exact" in capsys.readouterr().out


def assert_usage_error(proc):
    assert proc.returncode == 2
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_non_finite_grid_is_usage_error(tmp_path):
    common = ["--lambda", "1", "--out", str(tmp_path)]
    for args in (["exact", "--model", "lattice", "--grid", "0:inf:0.5"],
                 # too many points: the count overflows, or is finite but over the bound
                 ["exact", "--model", "lattice", "--grid", "0:1e300:1e-300"],
                 ["exact", "--model", "lattice", "--grid", "0:1e12:1"],
                 ["sample", "--model", "lattice", "--size", "8", "--samples", "2",
                  "--broaden", "0.5", "--grid", "0:inf:0.5"],
                 ["charfn", "--size", "8", "--samples", "2", "--t-grid", "0:inf:0.5"]):
        assert_usage_error(run_cli(args + common, tmp_path))


def test_zero_continuum_mesh_step_is_usage_error(tmp_path):
    proc = run_cli(["sample", "--model", "continuum", "--size", "4", "--h", "0",
                    "--lambda", "1", "--samples", "2", "--broaden", "0.5",
                    "--grid", "0:1:0.5", "--out", str(tmp_path)], tmp_path)
    assert_usage_error(proc)
    # a broadening that is not positive, NaN included, is refused the same way
    for broaden in ("0", "-1", "nan"):
        proc = run_cli(["sample", "--model", "lattice", "--size", "8", "--lambda", "1",
                        "--samples", "2", "--broaden", broaden, "--grid", "0:1:0.5",
                        "--out", str(tmp_path)], tmp_path)
        assert_usage_error(proc)
        assert "ids_mc" not in proc.stderr


def test_malformed_grid_returns_usage_error_in_process(tmp_path, capsys):
    # main returns 2 rather than raising SystemExit, so in-process callers see a code
    for argv in (["exact", "--model", "lattice", "--lambda", "1", "--grid", "0:inf:0.5"],
                 ["charfn", "--size", "8", "--samples", "2", "--lambda", "1",
                  "--t-grid", "0:1"]):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        assert "error:" in capsys.readouterr().err


def test_exact_time_integral_past_the_node_cap_is_usage_error(tmp_path, capsys):
    # d=4 takes the time integral; Z^3's closed form takes any energy
    args = ["exact", "--model", "lattice", "--lambda", "1", "--grid", "0:2e5:1e5"]
    rc = main(args + ["--dim", "4", "--out", str(tmp_path / "d4")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not list((tmp_path / "d4").iterdir())
    assert main(args + ["--dim", "3", "--out", str(tmp_path / "d3")]) == 0
    assert (tmp_path / "d3" / "exact_lattice_d3.csv").exists()


def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    for out in (blocker, blocker / "sub"):
        proc = run_cli(["exact", "--model", "lattice", "--lambda", "1",
                        "--grid", "-1:1:0.5", "--out", str(out)], tmp_path)
        assert_usage_error(proc)
    assert blocker.read_text() == ""


def test_sample_compare_exact_columns_and_z(tmp_path):
    rc = main(["sample", "--model", "lattice", "--dim", "1", "--size", "128",
               "--samples", "6", "--lambda", "1", "--broaden", "0.5",
               "--grid", "-4:4:0.2", "--seed", "42", "--compare-exact",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "sample_lattice.csv")
    assert header == ["x", "mean", "mean_im", "std_error", "n_samples", "exact", "z"]
    zs = [float(r[6]) for r in rows]
    assert max(zs) < 6.0
    assert all(int(r[4]) == 6 for r in rows)


def test_sample_single_sample_drops_se(tmp_path):
    proc = run_cli(["sample", "--model", "lattice", "--size", "64", "--samples", "1",
                    "--lambda", "1", "--broaden", "0.5", "--grid", "-2:2:0.5"],
                   tmp_path)
    assert proc.returncode == 0
    assert "standard errors are undefined" in proc.stderr
    header, _ = read_csv(tmp_path / "sample_lattice.csv")
    assert "std_error" not in header


def test_sample_seed_repeat_and_parallel_byte_identical(tmp_path):
    args = ["sample", "--model", "lattice", "--size", "96", "--samples", "8",
            "--lambda", "1", "--broaden", "0.3", "--grid", "-3:3:0.25",
            "--seed", "11"]
    d1, d2, d3 = (tmp_path / s for s in ("a", "b", "c"))
    for d in (d1, d2, d3):
        d.mkdir()
    assert run_cli(args + ["--out", str(d1)], tmp_path).returncode == 0
    assert run_cli(args + ["--out", str(d2)], tmp_path).returncode == 0
    assert run_cli(args + ["--out", str(d3)], tmp_path,
                   env_extra={"CAUCHYDOS_THREADS": "2"}).returncode == 0
    ref = (d1 / "sample_lattice.csv").read_bytes()
    assert (d2 / "sample_lattice.csv").read_bytes() == ref
    assert (d3 / "sample_lattice.csv").read_bytes() == ref


def test_sample_cap_exceeded_exits_3(tmp_path):
    proc = run_cli(["sample", "--model", "lattice", "--dim", "2", "--size", "70",
                    "--samples", "2", "--lambda", "1", "--broaden", "0.1",
                    "--grid", "-1:1:0.5"], tmp_path)
    assert proc.returncode == 3
    assert "charfn" in proc.stderr


def test_sample_ring_past_the_sweep_bound_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    # the couplings of one ring above MAX_GRID_POINTS sites would hold more entries than that
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the cap check")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    with pytest.raises(CapExceededError, match="chain pivot sweep"):
        dos_mc(LatticeBoxSpec(1, MAX_GRID_POINTS + 1), CauchyKernel(1.0),
               EnergyGrid(-1.0, 1.0, 0.5), 1, 0, 0.1)
    rc = main(["sample", "--model", "lattice", "--dim", "1", "--size", "50000000",
               "--samples", "2", "--lambda", "1", "--broaden", "0.1", "--grid=-1:1:0.5",
               "--out", str(tmp_path)])
    assert rc == 3
    assert "chain pivot sweep" in capsys.readouterr().err


def test_sample_tree_past_the_sweep_bound_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    # at depth 40 one sweep temporary would hold 3 * 2^39 * 48 complex entries
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the cap check")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    with pytest.raises(CapExceededError):
        dos_mc(TreeSpec(2, 40), CauchyKernel(1.0), EnergyGrid(-3.0, 3.0, 0.1), 1, 0, 0.1)
    rc = main(["sample", "--model", "bethe", "--depth", "40", "--samples", "1",
               "--lambda", "1", "--broaden", "0.1", "--grid=-3:3:0.1", "--out", str(tmp_path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_charfn_past_the_krylov_bound_exits_3_before_sampling(tmp_path, monkeypatch, capsys):
    # the first Krylov block of a 200,000-site ring, 64 vectors, would hold 12.8e6 entries
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the Krylov bound was checked")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    with pytest.raises(CapExceededError, match="Krylov basis"):
        charfn_mc(LatticeBoxSpec(1, 200_000), CauchyKernel(1.0), EnergyGrid(0.0, 1.0, 0.5), 1, 0)
    rc = main(["charfn", "--size", "200000", "--samples", "1", "--lambda", "1",
               "--t-grid", "0:1:0.5", "--out", str(tmp_path)])
    assert rc == 3
    assert "Krylov basis" in capsys.readouterr().err


def test_sample_continuum_runs_and_rejects_compare_exact(tmp_path):
    args = ["sample", "--model", "continuum", "--size", "20", "--h", "0.1",
            "--samples", "3", "--lambda", "0.5", "--broaden", "0.3",
            "--grid", "-2:8:0.5"]
    rc = main(args + ["--out", str(tmp_path)])
    assert rc == 0
    header, _ = read_csv(tmp_path / "sample_continuum.csv")
    assert header == ["x", "mean", "mean_im", "std_error", "n_samples"]
    proc = run_cli(args + ["--compare-exact", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 2


def test_sample_compare_exact_continuum_rejected_before_sampling(tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("dos_mc ran before the usage check")

    monkeypatch.setattr("cauchydos.cli.dos_mc", no_sampling)
    rc = main(["sample", "--model", "continuum", "--size", "20", "--h", "0.1",
               "--samples", "3", "--lambda", "0.5", "--broaden", "0.3",
               "--grid", "-2:8:0.5", "--compare-exact", "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sample_tree_compare_exact(tmp_path):
    rc = main(["sample", "--model", "bethe", "--k", "2", "--depth", "6",
               "--samples", "5", "--lambda", "1", "--broaden", "0.2",
               "--grid", "-2:2:0.25", "--seed", "3", "--compare-exact",
               "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "sample_bethe.csv")
    assert max(float(r[6]) for r in rows) < 6.0


def test_charfn_csv_columns_and_exact(tmp_path):
    rc = main(["charfn", "--model", "lattice", "--dim", "1", "--size", "64",
               "--samples", "4", "--lambda", "1", "--t-grid", "0:2:0.5",
               "--seed", "5", "--out", str(tmp_path)])
    assert rc == 0
    header, rows = read_csv(tmp_path / "charfn_lattice.csv")
    assert header == ["t", "mean", "mean_im", "std_error", "exact", "exact_im"]
    first = rows[0]
    assert float(first[1]) == 1.0 and float(first[3]) == 0.0
    for r in rows:
        t = float(r[0])
        assert abs(float(r[4]) - math.exp(-t) * jv(0, 2 * t)) < 1e-10
        assert float(r[5]) == 0.0


def test_charfn_offdiagonal_exact_column(tmp_path):
    rc = main(["charfn", "--model", "lattice", "--dim", "1", "--size", "64",
               "--samples", "4", "--lambda", "1", "--t-grid", "0:2:0.5",
               "--psi-offset", "1", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "charfn_lattice.csv")
    for r in rows:
        t = float(r[0])
        assert abs(float(r[4])) < 1e-12  # purely imaginary free amplitude
        assert abs(float(r[5]) - math.exp(-t) * jv(1, 2 * t)) < 1e-10


def test_charfn_exact_column_decodes_box_sites(tmp_path):
    # on an 8x8 torus site 9 is (1, 1) with axis 0 fastest: amplitude (i J_1)^2
    rc = main(["charfn", "--model", "lattice", "--dim", "2", "--size", "8",
               "--samples", "2", "--lambda", "1", "--t-grid", "0:2:0.5",
               "--psi-offset", "9", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = read_csv(tmp_path / "charfn_lattice.csv")
    for r in rows:
        t = float(r[0])
        assert abs(float(r[4]) + math.exp(-t) * jv(1, 2 * t) ** 2) < 1e-12
        assert abs(float(r[5])) < 1e-12


def test_charfn_bytes_do_not_depend_on_blas_or_sample_threads(tmp_path):
    # the charfn route's dense linear algebra: Lanczos reorthogonalisation and the T_m eigensolve
    args = ["charfn", "--model", "lattice", "--dim", "1", "--size", "2048", "--samples", "6",
            "--lambda", "1", "--t-grid", "0:6:0.1", "--seed", "11"]
    outputs = []
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            out = tmp_path / f"blas{blas}_workers{workers}"
            out.mkdir()
            proc = run_cli(args + ["--out", str(out)], tmp_path,
                           env_extra={"OPENBLAS_NUM_THREADS": blas,
                                      "CAUCHYDOS_THREADS": workers})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / "charfn_lattice.csv").read_bytes())
    assert all(o == outputs[0] for o in outputs[1:])


def test_sample_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the chain sweep of d=1 boxes and continuum meshes (trace and site), the
    # band solve of d=2 boxes and the tree sweep
    common = ["--samples", "4", "--lambda", "1", "--broaden", "0.1", "--grid=-6:6:0.05"]
    d1 = ["--model", "lattice", "--dim", "1", "--size", "2000"]
    continuum = ["--model", "continuum", "--size", "200", "--h", "0.25"]
    routes = {
        "d1": d1,
        "d1_site": [*d1, "--estimator", "site"],
        "d2": ["--model", "lattice", "--dim", "2", "--size", "45"],
        "continuum": continuum,
        "continuum_site": [*continuum, "--estimator", "site"],
        "tree": ["--model", "bethe", "--depth", "8"],
    }
    for name, model in routes.items():
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / f"{name}_blas{blas}"
            proc = run_cli(["sample", *model, *common, "--out", str(out)], tmp_path,
                           env_extra={"OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas})
            assert proc.returncode == 0, proc.stderr
            outputs.append([p.read_bytes() for p in sorted(out.glob("*.csv"))])
        assert outputs[0] and outputs[0] == outputs[1], name


def test_exact_d3_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the d=3 closed form and the d=4 curve, whose node sum is one BLAS product
    # per block of energies
    for d in ("3", "4"):
        outputs = []
        for blas in ("1", "2"):
            out = tmp_path / f"d{d}_blas{blas}"
            proc = run_cli(["exact", "--model", "lattice", "--dim", d, "--lambda", "0.05",
                            "--grid=-8:8:0.01", "--out", str(out)], tmp_path,
                           env_extra={"OPENBLAS_NUM_THREADS": blas, "OMP_NUM_THREADS": blas})
            assert proc.returncode == 0, proc.stderr
            outputs.append((out / f"exact_lattice_d{d}.csv").read_bytes())
        assert outputs[0] == outputs[1], d


def test_ids_bytes_do_not_depend_on_blas_or_sample_threads():
    # the Sturm count of a mesh and of a d=1 ring: the path sweep and the ring's banded LU
    script = textwrap.dedent("""
        import numpy as np
        from cauchydos.ensemble import BumpFamily, LatticeBoxSpec
        from cauchydos.measures import CauchyKernel
        from cauchydos.spectra import ids_mc

        for spec in (BumpFamily(50, 0.1), LatticeBoxSpec(1, 400)):
            est = ids_mc(spec, CauchyKernel(0.5), np.linspace(-3.0, 5.0, 41), 6, 9)
            print(est.mean.tobytes().hex(), est.std_error.tobytes().hex())
    """)
    outputs = []
    for blas in ("1", "2"):
        for workers in ("1", "2"):
            env = child_env()
            env.update({"OPENBLAS_NUM_THREADS": blas, "CAUCHYDOS_THREADS": workers})
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
    assert outputs[0].count("\n") == 2
    assert all(o == outputs[0] for o in outputs[1:])


def test_malformed_thread_count_is_usage_error(tmp_path):
    proc = run_cli(["sample", "--model", "lattice", "--size", "16", "--samples", "2",
                    "--lambda", "1", "--broaden", "0.5", "--grid", "-1:1:0.5"],
                   tmp_path, env_extra={"CAUCHYDOS_THREADS": "abc"})
    assert proc.returncode == 2
    assert "error:" in proc.stderr and "CAUCHYDOS_THREADS" in proc.stderr


def test_charfn_out_of_range_phi_site_is_usage_error(tmp_path, monkeypatch, capsys):
    def no_sampling(*args, **kwargs):
        raise AssertionError("a sample was drawn before the usage check")

    monkeypatch.setattr("cauchydos.spectra.draw_sample", no_sampling)
    for site in ("99", "-1"):
        rc = main(["charfn", "--model", "lattice", "--size", "8", "--samples", "2",
                   "--lambda", "1", "--phi-site", site, "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


def test_charfn_rejects_other_models(tmp_path):
    proc = run_cli(["charfn", "--model", "bethe", "--lambda", "1", "--samples", "2"],
                   tmp_path)
    assert proc.returncode == 2
    assert "invalid choice" in proc.stderr


def test_check_semigroup_deterministic_and_exit_codes(tmp_path):
    d1 = tmp_path / "r1"
    d2 = tmp_path / "r2"
    p1 = run_cli(["check", "semigroup", "--out", str(d1)], tmp_path)
    p2 = run_cli(["check", "semigroup", "--out", str(d2)], tmp_path)
    assert p1.returncode == 0 and p2.returncode == 0
    ref = (d1 / "check_semigroup.json").read_bytes()
    assert (d2 / "check_semigroup.json").read_bytes() == ref
    report = json.loads(ref)
    assert report["passed"] is True
    assert "PASS" in p1.stdout


def test_check_forced_failure_exits_1(tmp_path):
    proc = run_cli(["check", "semigroup", "--force-threshold", "0", "--out",
                    str(tmp_path)], tmp_path)
    assert proc.returncode == 1
    report = json.loads((tmp_path / "check_semigroup.json").read_text())
    assert report["passed"] is False


def test_check_unknown_name_exits_2(tmp_path):
    proc = run_cli(["check", "wat", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 2
    # in process, argparse's own exit for a choice it does not know
    with pytest.raises(SystemExit) as exc:
        main(["check", "wat", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_check_strip_passes_quickly(tmp_path):
    proc = run_cli(["check", "strip", "--out", str(tmp_path)], tmp_path)
    assert proc.returncode == 0
    report = json.loads((tmp_path / "check_strip.json").read_text())
    assert report["metrics"]["max_cr_residual"] <= 1e-5


def test_csv_uses_lf_and_no_crlf(tmp_path):
    rc = main(["exact", "--model", "lattice", "--dim", "1", "--lambda", "1",
               "--grid", "-1:1:0.5", "--out", str(tmp_path)])
    assert rc == 0
    raw = (tmp_path / "exact_lattice_d1.csv").read_bytes()
    assert b"\r" not in raw
