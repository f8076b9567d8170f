"""Command-line interface.

Exit codes are a stable contract: 0 success, 1 validation failure (bad config
or a failed oracle check), 2 runtime invariant violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import ConfigError, load_topology, load_workload
from .runner import RuntimeInvariantViolation, run_scenario, validate_scenario
from .scenarios import SCENARIOS, scenario, write_scenario
from .simkernel import SimError

SEED_ENV = "QPUSIM_SEED"


def _default_seed() -> int:
    return int(os.environ.get(SEED_ENV, "0"))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpusim",
        description="Simulated geo-distributed query engine built from composable query processing units.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write newline-delimited JSON metrics")
    run.add_argument("--topology", required=True)
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", required=True)
    run.add_argument("--until", type=int, default=None, help="hard virtual-time horizon in ms")

    val = sub.add_parser("validate", help="run, drain, and compare every query against a scan oracle")
    val.add_argument("--topology", required=True)
    val.add_argument("--workload", required=True)
    val.add_argument("--seed", type=int, default=None)

    scn = sub.add_parser("scenario", help="emit a bundled scenario's config pair")
    scn.add_argument("name", choices=SCENARIOS)
    scn.add_argument("--out", default=None, help="directory to write the config files into")

    chk = sub.add_parser("check-config", help="validate a topology file, and a workload file against it")
    chk.add_argument("--topology", required=True)
    chk.add_argument("--workload", default=None)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _default_seed()
    try:
        if args.command == "run":
            topology = load_topology(args.topology)
            workload = load_workload(args.workload, topology)
            result = run_scenario(topology, workload, seed=seed, out=args.out, until=args.until)
            print(json.dumps(result.summary, sort_keys=True))
            print(f"metrics written to {args.out}")
            return 0
        if args.command == "validate":
            topology = load_topology(args.topology)
            workload = load_workload(args.workload, topology)
            report = validate_scenario(topology, workload, seed=seed)
            print(report.describe())
            return 0 if report.ok else 1
        if args.command == "scenario":
            if args.out is None:
                topology, workload = scenario(args.name)
                print(json.dumps({"topology": topology, "workload": workload}, indent=2))
            else:
                tpath, wpath = write_scenario(args.name, args.out)
                print(f"wrote {tpath}\nwrote {wpath}")
            return 0
        if args.command == "check-config":
            topology = load_topology(args.topology)
            if args.workload is not None:
                load_workload(args.workload, topology)
            print("configuration OK")
            return 0
    except ConfigError as exc:
        for line in exc.errors:
            print(f"config error: {line}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (RuntimeInvariantViolation, SimError) as exc:
        print(f"runtime invariant violation: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
