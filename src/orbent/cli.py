"""Command-line interface with reproducible, machine-readable outputs.

Every run echoes its resolved configuration (defaults, seed and all) plus the
package version into the output; JSON for single results, CSV (comma
separator, 12 significant digits, LF endings, leading ``# config`` comment)
for scans.  Entanglement is reported in nats unless ``--bits`` converts at
the output layer.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, entanglement, free_fermion, oracle, sampling, ssr, stateio
from .errors import (
    DegenerateSectorError,
    InsufficientSymmetryError,
    OrbentError,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_INSUFFICIENT_SYMMETRY = 3
EXIT_DEGENERATE_SECTOR = 4

_RULE_ALIASES = {"n": "number", "number": "number", "p": "parity", "parity": "parity"}


def _rule(args: argparse.Namespace) -> str:
    """Rule named by ``--ssr``; ``args.ssr`` stays raw for the config echo."""
    return _RULE_ALIASES[args.ssr.lower()]


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _sanitize(obj):
    """Round floats to 12 significant digits for byte-stable output."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        if math.isinf(x) or math.isnan(x):
            return repr(x)
        return float(_fmt(x))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    return obj


def _config(args: argparse.Namespace) -> dict:
    skip = {"func", "output"}
    return {k: _sanitize(v) for k, v in sorted(vars(args).items()) if k not in skip}


def _write(args: argparse.Namespace, text: str) -> None:
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(args: argparse.Namespace, payload: dict) -> None:
    document = {"config": _config(args), "version": __version__}
    document.update(_sanitize(payload))
    _write(args, json.dumps(document, ensure_ascii=False, indent=2) + "\n")


def _emit_csv(args: argparse.Namespace, header: list[str], rows: list[list]) -> None:
    lines = ["# config: " + json.dumps({"version": __version__, **_config(args)}, ensure_ascii=False)]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(x) if isinstance(x, (float, np.floating)) else str(x) for x in row))
    _write(args, "\n".join(lines) + "\n")


def _unit_scale(args: argparse.Namespace) -> tuple[str, float]:
    if getattr(args, "bits", False):
        return "bits", 1.0 / math.log(2.0)
    return "nats", 1.0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _parse_grid(text: str) -> np.ndarray:
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) == 3:
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError(f"grid endpoints must be finite, got {text!r}")
        if count < 1:
            raise ValueError(f"grid count must be at least 1, got {text!r}")
        return np.linspace(start, stop, count)
    raise ValueError(f"grid must be 'value' or 'start:stop:count', got {text!r}")


def _aux_values(result: entanglement.EntanglementResult) -> dict:
    """Linear-solution ``r, t`` of the spin sector and ``r', t'`` of the pair sector."""
    spin = result.details.get("spin_sector", result.details)
    pair = result.details.get("pair_sector", {})
    return {"r": spin.get("r"), "t": spin.get("t"),
            "r_prime": pair.get("r"), "t_prime": pair.get("t")}


def cmd_formula(args: argparse.Namespace) -> int:
    state = stateio.load_state(args.input)
    units, scale = _unit_scale(args)
    result = entanglement.orbital_entanglement(
        state, _rule(args), tol=args.tol, twirl_coherence=args.twirl_coherence,
        fallback_oracle=False,
    )
    payload = {
        f"value_{units}": result.value * scale,
        "units": units,
        "variant": result.variant.value if result.variant else None,
        "method": result.method,
        "coherence_twirled": result.coherence_twirled,
        "p": result.weights.tolist(),
        "q_star": result.closest_weights.tolist(),
    }
    payload.update(_aux_values(result))
    _emit_json(args, payload)
    return EXIT_OK


def cmd_inspect(args: argparse.Namespace) -> int:
    state = stateio.load_state(args.input)
    report = ssr.detect_symmetries(state, tol=args.tol)
    spectrum = entanglement.sector_spectrum(state, "number")
    _emit_json(args, {
        "symmetries": report.to_dict(),
        "weights": spectrum.weights.tolist(),
        "spin_coherence": [spectrum.spin_coherence.real, spectrum.spin_coherence.imag],
    })
    return EXIT_OK


#: ``oracle-verify --variant`` -> (random spectrum kind, closed formula); the
#: formula's rule is the oracle's.
_VARIANTS = {
    "singlet": ("singlet", ssr.FormulaVariant.NSSR_SINGLET),
    "general": ("general", ssr.FormulaVariant.NSSR_GENERAL),
    "parity": ("parity-general", ssr.FormulaVariant.PSSR_GENERAL),
}
#: Random spectra per weight draw, batched formula pass and oracle batch in
#: ``oracle-verify``.
VERIFY_CHUNK = 1000


def cmd_oracle_verify(args: argparse.Namespace) -> int:
    units, scale = _unit_scale(args)
    if args.input:
        return _oracle_verify_file(args, units, scale)
    rng = np.random.default_rng(args.seed)
    variants = tuple(_VARIANTS) if args.variant == "all" else (args.variant,)
    report = {}
    overall = 0.0
    for variant in variants:
        kind, formula = _VARIANTS[variant]
        deltas = np.empty(args.n)
        for start in range(0, args.n, VERIFY_CHUNK):
            weights = sampling.random_weights(rng, kind,
                                              size=min(VERIFY_CHUNK, args.n - start))
            values, _ = entanglement.closed_form_batch(weights, formula)
            # the oracle solves each spectrum on its own, sharing no code with the formulas
            deltas[start:start + len(weights)] = np.abs(
                values - oracle.kl_min_oracle_batch(weights, formula.ssr))
        report[variant] = {
            "n": args.n,
            f"max_abs_delta_{units}": deltas.max() * scale,
            f"mean_abs_delta_{units}": deltas.mean() * scale,
        }
        overall = max(overall, deltas.max())
    payload = {"units": units, "threshold": args.threshold, "max_abs_delta": overall * scale}
    payload.update(report)
    _emit_json(args, payload)
    return EXIT_OK if overall <= args.threshold else EXIT_FAILURE


def _oracle_verify_file(args: argparse.Namespace, units: str, scale: float) -> int:
    state = stateio.load_state(args.input)
    rule = _rule(args)
    spectrum = entanglement.sector_spectrum(ssr.project(state, rule), rule)
    problem = oracle.ConstrainedSimplexProblem(spectrum.weights, rule)
    solution = oracle.kl_min_oracle(problem)
    payload = {
        "units": units,
        f"oracle_value_{units}": solution.value * scale,
        "q_star": solution.weights.tolist(),
        "feasibility_residual": solution.feasibility_residual,
        "stationarity_residual": solution.stationarity_residual,
    }
    try:
        formula = entanglement.orbital_entanglement(state, rule, tol=args.tol,
                                                    fallback_oracle=False)
        payload[f"formula_value_{units}"] = formula.value * scale
        payload["abs_delta"] = abs(formula.value - solution.value) * scale
        payload["variant"] = formula.variant.value if formula.variant else None
    except (InsufficientSymmetryError, DegenerateSectorError) as exc:
        payload[f"formula_value_{units}"] = None
        payload["formula_unavailable"] = str(exc)
    _emit_json(args, payload)
    return EXIT_OK


def cmd_free_fermion_scan(args: argparse.Namespace) -> int:
    units, scale = _unit_scale(args)
    rows = []
    for eta in _parse_grid(args.eta_grid):
        for distance, value in free_fermion.entanglement_vs_distance(float(eta), args.l_max):
            rows.append([float(eta), distance, value * scale])
    _emit_csv(args, ["eta", "l", f"E_{units}"], rows)
    return EXIT_OK


def cmd_lmin(args: argparse.Namespace) -> int:
    rows = []
    for eta in _parse_grid(args.eta_grid):
        l_min = free_fermion.disentangling_distance(float(eta), args.l_cap)
        rows.append([float(eta), l_min, free_fermion.lmin_leading_order(float(eta))])
    _emit_csv(args, ["eta", "l_min", "leading_order"], rows)
    return EXIT_OK


def cmd_ehm_scan(args: argparse.Namespace) -> int:
    # the ED stack loads three of scipy's compiled modules (the Lanczos runs'
    # sparse kernel, LAPACK and BLAS), not its packages: only its commands pay
    from . import lattice

    units, scale = _unit_scale(args)
    length = args.length
    chain = lattice.ChainSpec(length, length // 2, length // 2, t_hop=args.t_hop)
    pivot = args.pivot if args.pivot is not None else length // 2
    rows_raw = lattice.bond_scan(chain, _parse_grid(args.U), _parse_grid(args.V),
                                 pivot, seed=args.seed)
    rows = [[r["u"], r["v"], r["e_strong"] * scale, r["e_weak"] * scale, r["delta"] * scale]
            for r in rows_raw]
    _emit_csv(args, ["U", "V", f"E_strong_{units}", f"E_weak_{units}", "delta"], rows)
    return EXIT_OK


def cmd_dimer(args: argparse.Namespace) -> int:
    from . import lattice

    units, scale = _unit_scale(args)
    number, parity = lattice._dimer_rows(args.U, args.V, args.t_hop, ("number", "parity"))
    _emit_json(args, {
        "units": units,
        "energy": number["energy"],
        "energy_analytic": number["energy_analytic"],
        f"entanglement_number_rule_{units}": number["entanglement_nats"] * scale,
        f"entanglement_parity_rule_{units}": parity["entanglement_nats"] * scale,
        "variant_number_rule": number["variant"],
        "variant_parity_rule": parity["variant"],
    })
    return EXIT_OK


def cmd_seniority(args: argparse.Namespace) -> int:
    units, scale = _unit_scale(args)
    rdms = [stateio.load_state(path) for path in args.inputs]
    cost = entanglement.seniority_cost(rdms, rule=_rule(args), tol=args.tol)
    _emit_json(args, {
        "units": units,
        f"total_{units}": cost.total * scale,
        "per_pair": [None if v is None else v * scale for v in cost.per_pair],
        "failures": [{"index": k, "reason": reason} for k, reason in cost.failures],
        "partial": cost.partial,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbent",
        description="Superselection-compliant entanglement between fermionic orbitals.",
    )
    parser.add_argument("--version", action="version", version=f"orbent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, seed: bool = False) -> None:
        p.add_argument("--tol", type=float, default=ssr.DETECTION_TOL,
                       help="symmetry-detection tolerance")
        p.add_argument("--bits", action="store_true",
                       help="report entanglement in bits instead of nats")
        p.add_argument("-o", "--output", default=None, help="output file (default stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=1, help="random seed")

    p = sub.add_parser("formula", help="closed-formula entanglement of a density-matrix file")
    p.add_argument("input", help="density matrix JSON file")
    p.add_argument("--ssr", default="number", choices=sorted(_RULE_ALIASES),
                   help="superselection rule")
    p.add_argument("--twirl-coherence", action="store_true",
                   help="absorb real sector coherence by the symmetry twirl")
    common(p)
    p.set_defaults(func=cmd_formula)

    p = sub.add_parser("inspect", help="symmetry report of a density-matrix file")
    p.add_argument("input", help="density matrix JSON file")
    common(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("oracle-verify",
                       help="compare closed formulas against the brute-force minimizer")
    p.add_argument("input", nargs="?", default=None,
                   help="optional density matrix JSON file (default: random batch)")
    p.add_argument("--n", type=_positive_int, default=1000, help="random spectra per variant")
    p.add_argument("--variant", default="all", choices=("all", *_VARIANTS))
    p.add_argument("--ssr", default="number", choices=sorted(_RULE_ALIASES),
                   help="superselection rule for file mode")
    p.add_argument("--threshold", type=float, default=1e-6,
                   help="maximum tolerated |formula - oracle|")
    common(p, seed=True)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("free-fermion-scan", help="entanglement vs distance for the Fermi sea")
    p.add_argument("--eta-grid", required=True, help="filling grid start:stop:count")
    p.add_argument("--l-max", type=int, required=True, help="largest distance")
    common(p)
    p.set_defaults(func=cmd_free_fermion_scan)

    p = sub.add_parser("lmin", help="disentangling distance vs filling")
    p.add_argument("--eta-grid", required=True, help="filling grid start:stop:count")
    p.add_argument("--l-cap", type=int, default=None, help="scan cap (default 4x leading order)")
    common(p)
    p.set_defaults(func=cmd_lmin)

    p = sub.add_parser("ehm-scan", help="bond entanglement scan of the extended Hubbard chain")
    p.add_argument("--L", dest="length", type=int, required=True, help="chain length (even)")
    p.add_argument("--U", required=True, help="on-site repulsion (value or start:stop:count)")
    p.add_argument("--V", required=True, help="neighbor interaction (value or start:stop:count)")
    p.add_argument("--pivot", type=int, default=None, help="shared site of the two bonds")
    p.add_argument("--t-hop", type=float, default=1.0, help="hopping amplitude")
    common(p, seed=True)
    p.set_defaults(func=cmd_ehm_scan)

    p = sub.add_parser("dimer", help="half-filled two-site chain analytics")
    p.add_argument("--U", type=float, required=True)
    p.add_argument("--V", type=float, default=0.0)
    p.add_argument("--t-hop", type=float, default=1.0)
    common(p)
    p.set_defaults(func=cmd_dimer)

    p = sub.add_parser("seniority", help="summed pair entanglement of reduced-state files")
    p.add_argument("inputs", nargs="+", help="density matrix JSON files, one per orbital pair")
    p.add_argument("--ssr", default="number", choices=sorted(_RULE_ALIASES))
    common(p)
    p.set_defaults(func=cmd_seniority)
    return parser


#: One parser per process: it holds no per-call state, and argparse looks up
#: ``sys.stdout`` and ``sys.stderr`` when it prints, not when it is built.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InsufficientSymmetryError as exc:
        print(f"insufficient symmetry: {exc}", file=sys.stderr)
        print("hint: run 'orbent oracle-verify <file>' for the brute-force value",
              file=sys.stderr)
        return EXIT_INSUFFICIENT_SYMMETRY
    except DegenerateSectorError as exc:
        print(f"degenerate sector: {exc}", file=sys.stderr)
        print("hint: run 'orbent oracle-verify <file>' for the brute-force value",
              file=sys.stderr)
        return EXIT_DEGENERATE_SECTOR
    except OrbentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
