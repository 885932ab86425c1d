"""The `rivercommons` command line: run, sweep, solve-game, calibrate-check."""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import load_config, load_json_object
from .equilibrium import BimatrixGame, enumerate_pure_ne, lemke_howson, select_equilibrium
from .errors import ConfigurationError, RiverCommonsError, SimulationError
from .harness import CALIBRATE_MIN_HORIZON, CALIBRATE_TAUS, calibrate_check, run_simulation, sweep
from .outputs import (SUMMARY_FIELDS, SWEEP_COLUMNS, emit_outputs, summarize,
                      write_rows, write_summary_csv)


def _cmd_run(args):
    config = load_config(args.config)
    if args.out and not config.gateway.log_path:
        # Only pipelines that open a gateway write this log; a stale one goes.
        log_path = os.path.join(args.out, "requests.jsonl")
        try:
            os.makedirs(args.out, exist_ok=True)
            Path(log_path).unlink(missing_ok=True)
        except OSError as err:
            raise SimulationError(f"cannot write outputs under {args.out}: {err}") from err
        config = replace(config, gateway=replace(config.gateway, log_path=log_path))
    artifacts = run_simulation(config)
    if args.out:
        paths = emit_outputs(artifacts, args.out)
        for name, path in sorted(paths.items()):
            print(f"{name}: {path}")
    summary = summarize(artifacts)
    for key in SUMMARY_FIELDS:
        print(f"{key}: {summary[key]:.2f}")
    return 0


def _cmd_sweep(args):
    base = load_config(args.config)
    rows = sweep(base, pipelines=args.pipelines, taus=args.taus,
                 behaviours=args.profiles, seeds=args.seeds)
    if args.out:
        path = os.path.join(args.out, "sweep.csv")
        write_summary_csv(rows, path)
        print(f"sweep: {path}")
    write_rows(sys.stdout, rows, SWEEP_COLUMNS)
    return 0


def _cmd_solve_game(args):
    data = load_json_object(args.game, "game")
    missing = {"row_payoffs", "col_payoffs"} - set(data)
    if missing:
        raise ConfigurationError(
            f"game file {args.game} lacks {', '.join(sorted(missing))}")
    try:
        row = np.array(data["row_payoffs"], dtype=float)
        col = np.array(data["col_payoffs"], dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigurationError(
            f"game file {args.game} payoffs must be rectangular numeric matrices: {err}") from err
    labels = [data.get(key, []) for key in ("row_actions", "col_actions")]
    if not all(isinstance(v, list) for v in labels):
        raise ConfigurationError(
            f"game file {args.game} row_actions and col_actions must be JSON lists")
    game = BimatrixGame(row, col, *map(tuple, labels))
    pure = sorted(enumerate_pure_ne(game))
    print("pure equilibria:")
    if pure:
        for i, j in pure:
            print(f"  ({game.row_actions[i]}, {game.col_actions[j]})")
        i, j = select_equilibrium(pure, game.row_actions, game.col_actions)
        print(f"selected: ({game.row_actions[i]}, {game.col_actions[j]})")
    else:
        print("  (none)")
    profile = lemke_howson(game, initial_label=args.initial_label)
    print("lemke-howson profile:")
    print(f"  row: {[round(float(p), 6) for p in profile.row_dist]}")
    print(f"  col: {[round(float(p), 6) for p in profile.col_dist]}")
    return 0


def _cmd_calibrate_check(args):
    config = load_config(args.config)
    report = calibrate_check(config, taus=args.taus or CALIBRATE_TAUS)
    if report["insufficient_horizon"]:
        print(f"warning: horizon {config.horizon} is below "
              f"{CALIBRATE_MIN_HORIZON}; pattern checks are unreliable")
    for check in report["checks"]:
        status = "PASS" if check["passed"] else "FAIL"
        print(f"[{status}] {check['name']} ({check['detail']})")
    print("overall:", "PASS" if report["passed"] else "FAIL")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rivercommons",
        description="Irrigation/fishing commons simulation engine")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="robustness sweep over a grid")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--pipelines", nargs="*", default=None)
    p.add_argument("--taus", nargs="*", type=float, default=None)
    p.add_argument("--profiles", nargs="*", default=None)
    p.add_argument("--seeds", nargs="*", type=int, default=None)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("solve-game", help="solve a bimatrix game from JSON")
    p.add_argument("--game", required=True)
    p.add_argument("--initial-label", type=int, default=0)
    p.set_defaults(func=_cmd_solve_game)

    p = sub.add_parser("calibrate-check", help="verify the shipped defaults")
    p.add_argument("--config", required=True)
    p.add_argument("--taus", nargs="*", type=float, default=None)
    p.set_defaults(func=_cmd_calibrate_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except RiverCommonsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
