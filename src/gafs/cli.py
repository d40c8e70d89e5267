"""Command-line front end for batch experiments.

Parameter precedence: command-line flags override the optional JSON config
file, which overrides the built-in defaults (population 100, 80 generations,
mutation 0.024, entropy).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .experiment import (
    ExperimentConfig,
    emit_reports,
    format_verification,
    run_experiment,
    verify_appendix,
)
from .ga import GAConfig
from .metrics import pct, table_header, table_row
from .nslkdd import ParseError

DEFAULTS = {
    "criterion": "entropy",
    "pop": 100,
    "generations": 80,
    "mutation_rate": 0.024,
    "crossover_rate": 0.9,
    "tournament": 2,
    "seed": 0,
    "early_stop": 0.0,
}
# what a config file may give for a key, by the type of the key's default (never a bool)
CONFIG_TYPES = {str: (str, "a string"), int: (int, "an integer"), float: ((int, float), "a number")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gafs",
        description=(
            "Genetic-algorithm feature selection for per-attack DoS detection "
            "on NSL-KDD, wrapped around a decision-tree classifier."
        ),
    )
    parser.add_argument("--train", required=True, help="KDDTrain+ style file")
    parser.add_argument("--test", required=True, help="KDDTest+ style file")
    parser.add_argument("--mode", choices=("ga", "fixed"),
                        help="evolve a feature mask (ga) or evaluate a fixed one")
    parser.add_argument("--attack",
                        help="target attack name, comma-separated names, or dos-all")
    parser.add_argument("--criterion", choices=("entropy", "gini"))
    parser.add_argument("--features",
                        help="comma-separated canonical feature names (fixed mode)")
    parser.add_argument("--pop", type=int, help="population size")
    parser.add_argument("--generations", type=int, help="generation budget")
    parser.add_argument("--mutation-rate", type=float, help="per-gene flip probability")
    parser.add_argument("--crossover-rate", type=float, help="per-pair crossover probability")
    parser.add_argument("--tournament", type=int, help="tournament size for parent selection")
    parser.add_argument("--seed", type=int, help="random seed for the whole run")
    parser.add_argument("--early-stop", type=float,
                        help="stop once best fitness reaches this value")
    parser.add_argument("--out", help="directory for result files")
    parser.add_argument("--config", help="JSON file with defaults for any flag above")
    parser.add_argument("--verify-appendix", action="store_true",
                        help="re-evaluate the bundled reference feature sets and show deltas")
    return parser


def _resolve(args: argparse.Namespace) -> dict:
    """Apply flag > config-file > default precedence for tunable settings."""
    settings = dict(DEFAULTS)
    if args.config:
        doc = json.loads(Path(args.config).read_text())
        if not isinstance(doc, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = sorted(set(doc) - set(DEFAULTS))
        if unknown:
            raise ValueError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"valid keys: {', '.join(sorted(DEFAULTS))}"
            )
        for key, value in doc.items():
            allowed, noun = CONFIG_TYPES[type(DEFAULTS[key])]
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ValueError(f"config key {key!r} must be {noun}, got {value!r}")
        settings.update(doc)
    for key in DEFAULTS:
        value = getattr(args, key)
        if value is not None:
            settings[key] = value
    return settings


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        settings = _resolve(args)

        if args.verify_appendix:
            for flag in ("mode", "attack", "features"):
                if getattr(args, flag):
                    parser.error(f"--verify-appendix cannot be combined with --{flag}")
            rows = verify_appendix(args.train, args.test)
            text = format_verification(rows)
            print(text)
            if args.out:
                out = Path(args.out)
                out.mkdir(parents=True, exist_ok=True)
                (out / "verification.txt").write_text(text + "\n")
            return 0

        if not args.mode:
            parser.error("--mode is required unless --verify-appendix is given")
        if not args.attack:
            parser.error("--attack is required unless --verify-appendix is given")
        if args.mode == "fixed" and not args.features:
            parser.error("--mode fixed requires --features")
        if args.mode == "ga" and args.features:
            parser.error("--features is only valid with --mode fixed")

        ga_cfg = None
        if args.mode == "ga":
            ga_cfg = GAConfig(
                seed=settings["seed"],
                criterion=settings["criterion"],
                population_size=settings["pop"],
                generations=settings["generations"],
                mutation_rate=settings["mutation_rate"],
                crossover_rate=settings["crossover_rate"],
                tournament_size=settings["tournament"],
                early_stop_fitness=settings["early_stop"],
            )
        cfg = ExperimentConfig(
            train_path=args.train,
            test_path=args.test,
            mode=args.mode,
            target=args.attack,
            criterion=settings["criterion"],
            fixed_features=(
                tuple(args.features.split(",")) if args.features else None
            ),
            ga=ga_cfg,
        )

        log_lines = ["generation,best_fitness,selected_count,elapsed_seconds"]
        started = time.perf_counter()

        def trace(generation, best):
            elapsed = time.perf_counter() - started
            print(
                f"generation {generation}: fitness={best.fitness:.6f} "
                f"features={best.selected_count} elapsed={elapsed:.1f}s"
            )
            log_lines.append(
                f"{generation},{best.fitness:.17g},{best.selected_count},{elapsed:.3f}"
            )

        result = run_experiment(cfg, trace=trace if args.mode == "ga" else None)

        print()
        if result.cm is None:
            print("no classifier: the search ended on the empty feature mask "
                  f"(fitness {result.best.fitness})")
        else:
            print(table_header())
            print(table_row(result.mask.selected_count, cfg.target,
                            result.cm, result.report))
            print()
            print(result.feature_line())
            report = result.report
            print(
                f"detection rate {report.detection_rate:.2f}%  "
                f"(FP {pct(report.fp_rate)}, FN {pct(report.fn_rate)})  "
                f"fitness {report.fitness:.6f}"
            )
        if args.mode == "ga":
            print(result.evaluation_line())
            log_lines.append(result.evaluation_line())
        print(f"completed in {result.duration_seconds:.1f}s")
        for warning in result.codebook.warnings():
            print(f"warning: {warning}")

        if args.out:
            written = emit_reports(result, args.out)
            if args.mode == "ga":
                log_path = Path(args.out) / "run.log"
                log_path.write_text("\n".join(log_lines) + "\n")
                written.append(log_path)
            for path in written:
                print(f"wrote {path}")
        return 0
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
