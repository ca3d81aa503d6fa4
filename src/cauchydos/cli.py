"""Command-line front end: exact curves, disorder ensembles, checks, CSV/JSON out.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 resource cap exceeded.
Every output file is paired with a manifest recording the full parameter set
and master seed; data outputs are byte-identical across reruns, the manifest
additionally records wall time.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import free_models as fm
from .checks import CHECK_NAMES, reference_curve, run_check
from .ensemble import BumpFamily, LatticeBoxSpec, TreeSpec
from .errors import CapExceededError
from .measures import CauchyKernel, EnergyGrid, window_tail_mass, write_csv, write_json
from .spectra import charfn_mc, dos_mc

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def _write_manifest(out_dir: Path, stem: str, subcommand: str, parameters: dict,
                    master_seed, outputs: list[str], wall_time: float) -> None:
    write_json(out_dir / f"{stem}_manifest.json", {
        "artifact": "cauchydos",
        "version": __version__,
        "subcommand": subcommand,
        "parameters": parameters,
        "master_seed": master_seed,
        "outputs": outputs,
        "wall_time_s": wall_time,
    })


def _emit(args, stem: str, columns: dict, parameters: dict, master_seed, t0: float) -> int:
    """Write ``<stem>.csv`` and its manifest into ``--out`` and report the path."""
    out_dir = Path(args.out)
    csv_path = out_dir / f"{stem}.csv"
    write_csv(csv_path, columns)
    _write_manifest(out_dir, stem, args.subcommand, parameters, master_seed, [csv_path.name],
                    time.perf_counter() - t0)
    print(f"wrote {csv_path}")
    return EXIT_OK


def _usage_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_USAGE


def _cmd_exact(args) -> int:
    t0 = time.perf_counter()
    grid = EnergyGrid.parse(args.grid)
    kernel = CauchyKernel(args.lam)
    params = {"model": args.model, "lambda": args.lam,
              "grid": [grid.e_min, grid.e_max, grid.step]}

    column = "ids" if args.model == "continuum" else "density"
    if args.model == "lattice":
        params["dim"] = args.dim
        half = max(abs(grid.e_min), abs(grid.e_max))
        params["declared_tail_mass"] = window_tail_mass(kernel, half)
        model, stem = fm.LatticeFreeModel(args.dim), f"exact_lattice_d{args.dim}"
    elif args.model == "bethe":
        params["k"] = args.k
        model, stem = fm.BetheFreeModel(args.k), f"exact_bethe_k{args.k}"
    else:
        model, stem = fm.ContinuumFreeModel(), "exact_continuum"
    values = fm.exact_smoothed(model, kernel, grid.points)
    return _emit(args, stem, {"energy": grid.points, column: values}, params, None, t0)


def _model_spec_from_args(args):
    """The sample's operator spec and the manifest fields that name it."""
    if args.model == "lattice":
        return LatticeBoxSpec(args.dim, args.size), {"dim": args.dim, "size": args.size}
    if args.model == "bethe":
        return TreeSpec(args.k, args.depth), {"k": args.k, "depth": args.depth}
    return BumpFamily(args.size, args.h), {"size": args.size, "h": args.h}


def _cmd_sample(args) -> int:
    t0 = time.perf_counter()
    grid = EnergyGrid.parse(args.grid)
    kernel = CauchyKernel(args.lam)
    spec, model_fields = _model_spec_from_args(args)
    if args.compare_exact:
        # computed first, so a spec without a reference is refused before sampling
        exact = reference_curve(spec, args.lam + args.broaden, args.estimator, grid.points)

    est = dos_mc(spec, kernel, grid, args.samples, args.seed, args.broaden,
                 estimator=args.estimator)
    if args.samples == 1:
        print("warning: one sample only, standard errors are undefined", file=sys.stderr)

    columns = est.columns()
    if args.compare_exact:
        columns["exact"] = exact
        if est.std_error is not None:
            columns["z"] = np.abs(est.mean - exact) / np.maximum(est.std_error, 1e-15)

    params = {"model": args.model, "lambda": args.lam, "samples": args.samples,
              "broaden": args.broaden, "grid": [grid.e_min, grid.e_max, grid.step],
              "estimator": args.estimator, "compare_exact": bool(args.compare_exact),
              **model_fields}
    return _emit(args, f"sample_{args.model}", columns, params, args.seed, t0)


def _cmd_charfn(args) -> int:
    t0 = time.perf_counter()
    grid = EnergyGrid.parse(args.t_grid)
    kernel = CauchyKernel(args.lam)
    spec = LatticeBoxSpec(args.dim, args.size)
    psi_site = args.psi_offset % spec.n_sites
    est = charfn_mc(spec, kernel, grid, args.samples, args.seed,
                    phi_site=args.phi_site, psi_site=psi_site)
    times = grid.points
    exact = fm.lattice_box_charfn(fm.LatticeFreeModel(args.dim), kernel, args.size,
                                  args.phi_site, psi_site, times)
    se = est.std_error if est.std_error is not None else np.zeros_like(times)
    columns = {"t": times, "mean": est.mean.real, "mean_im": est.mean.imag, "std_error": se,
               "exact": exact.real, "exact_im": exact.imag}
    params = {"model": args.model, "dim": args.dim, "size": args.size,
              "lambda": args.lam, "samples": args.samples,
              "t_grid": [grid.e_min, grid.e_max, grid.step],
              "phi_site": args.phi_site, "psi_offset": args.psi_offset}
    return _emit(args, "charfn_lattice", columns, params, args.seed, t0)


def _cmd_check(args) -> int:
    t0 = time.perf_counter()
    names = list(CHECK_NAMES) if args.name == "all" else [args.name]
    out_dir = Path(args.out)
    all_passed = True
    written = []
    for name in names:
        report = run_check(name, seed=args.seed, threshold_override=args.force_threshold)
        path = out_dir / f"check_{name}.json"
        write_json(path, report.to_json_dict())
        written.append(path.name)
        print(report.table_row())
        all_passed = all_passed and report.passed
    _write_manifest(out_dir, "check", "check",
                    {"names": names, "force_threshold": args.force_threshold},
                    args.seed, written, time.perf_counter() - t0)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# grid values like -6:6:0.01, -.5:1:0.5 or -1e-1:1:0.5 start with a dash;
# teach argparse that a dash before a digit or .digit begins a value
_GRID_LIKE = re.compile(r"^-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cauchydos",
        description="Exact and Monte Carlo density of states for Cauchy-disordered "
                    "operators (lattice, tree, 1-d continuum).",
        epilog="Sample-level parallelism honors the CAUCHYDOS_THREADS environment "
               "variable (default 1).",
    )
    parser._negative_number_matcher = _GRID_LIKE
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, seeded=True):
        p._negative_number_matcher = _GRID_LIKE
        if seeded:
            p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
        p.add_argument("--out", default=".", help="output directory (default cwd)")

    p_exact = sub.add_parser("exact", help="write an exact smoothed DOS/IDS curve")
    p_exact.add_argument("--model", required=True, choices=["lattice", "bethe", "continuum"])
    p_exact.add_argument("--dim", type=int, default=1, help="lattice dimension")
    p_exact.add_argument("--k", type=int, default=2, help="tree branching number")
    p_exact.add_argument("--lambda", dest="lam", type=float, required=True,
                         help="Cauchy disorder scale")
    p_exact.add_argument("--grid", required=True, help="energy grid min:max:step")
    add_common(p_exact, seeded=False)  # exact curves draw no samples
    p_exact.set_defaults(func=_cmd_exact)

    p_sample = sub.add_parser("sample", help="Monte Carlo broadened DOS over disorder")
    p_sample.add_argument("--model", required=True, choices=["lattice", "bethe", "continuum"])
    p_sample.add_argument("--dim", type=int, default=1)
    p_sample.add_argument("--size", type=int, default=512,
                          help="sites per axis (lattice) or bump count (continuum)")
    p_sample.add_argument("--k", type=int, default=2)
    p_sample.add_argument("--depth", type=int, default=10)
    p_sample.add_argument("--h", type=float, default=0.05, help="continuum mesh step")
    p_sample.add_argument("--lambda", dest="lam", type=float, required=True)
    p_sample.add_argument("--samples", type=int, required=True)
    p_sample.add_argument("--broaden", type=float, required=True,
                          help="per-sample Cauchy broadening eta > 0")
    p_sample.add_argument("--grid", required=True, help="energy grid min:max:step")
    p_sample.add_argument("--estimator", choices=["trace", "site"], default="trace")
    p_sample.add_argument("--compare-exact", action="store_true",
                          help="append exact lam+eta column and z-scores")
    add_common(p_sample)
    p_sample.set_defaults(func=_cmd_sample)

    p_charfn = sub.add_parser("charfn", help="Monte Carlo characteristic function vs exact")
    # the free amplitude has a closed form on lattice boxes only
    p_charfn.add_argument("--model", default="lattice", choices=["lattice"])
    p_charfn.add_argument("--dim", type=int, default=1)
    p_charfn.add_argument("--size", type=int, default=512)
    p_charfn.add_argument("--lambda", dest="lam", type=float, required=True)
    p_charfn.add_argument("--samples", type=int, required=True)
    p_charfn.add_argument("--t-grid", default="0:6:0.1", help="time grid min:max:step")
    p_charfn.add_argument("--phi-site", type=int, default=0)
    p_charfn.add_argument("--psi-offset", type=int, default=0,
                          help="linear site index of psi, axis 0 fastest (modulo the box size)")
    add_common(p_charfn)
    p_charfn.set_defaults(func=_cmd_charfn)

    p_check = sub.add_parser("check", help="run named verification checks")
    p_check.add_argument("name", choices=[*CHECK_NAMES, "all"])
    p_check.add_argument("--force-threshold", type=float, default=None,
                         help="override every pass threshold (0 forces failure)")
    add_common(p_check)
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _usage_error(f"--out {args.out!r} is not a usable directory: {exc}")
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        return _usage_error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
