"""poa-lab command line interface.

Exit codes: 0 all checks passed, 1 an assertion/check failed, 2 bad config.
"""

from __future__ import annotations

import argparse
import sys

from . import instances as inst_mod
from .harness import ConfigError, ExperimentConfig, read_json, run, write_csv


def _print_report(report) -> int:
    for check in report.checks:
        status = "PASS" if check["passed"] else "FAIL"
        value = "" if check["value"] is None else f" value={check['value']}"
        detail = f" ({check['detail']})" if check["detail"] else ""
        print(f"{status} {check['name']}{value}{detail}")
    print("result:", "PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="poa-lab")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("config", help="path to a JSON experiment config")

    sub.add_parser("list-instances", help="list named instances")

    p_bounds = sub.add_parser("bound-table", help="print the PoA bound table")
    p_bounds.add_argument("--csv", help="also write the table as CSV")

    p_verify = sub.add_parser("verify", help="verify a named instance")
    p_verify.add_argument("instance_id")
    p_verify.add_argument("--k", type=int)
    p_verify.add_argument("--eps", type=float)
    p_verify.add_argument("--tick", type=float)
    p_verify.add_argument("--mu", type=float)
    p_verify.add_argument("--alpha", type=float)

    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            data = read_json(args.config, "config")
            report = run(ExperimentConfig.from_dict(data))
            return _print_report(report)

        if args.command == "list-instances":
            for name, (description, _) in sorted(inst_mod.REGISTRY.items()):
                print(f"{name}: {description}")
            return 0

        if args.command == "bound-table":
            report = run({"schema_version": 1, "experiment": "bound-table"})
            for row in report.rows:
                print(f"{row['instance']}: {row['poa']:.5f}")
            if args.csv:
                write_csv(report.rows, args.csv)
            return 0

        if args.command == "verify":
            params = {}
            for key in ("k", "eps", "tick", "mu", "alpha"):
                value = getattr(args, key)
                if value is not None:
                    params[key] = value
            config = {"schema_version": 1, "experiment": "verify-instance",
                      "instance": args.instance_id, "params": params}
            report = run(ExperimentConfig.from_dict(config))
            return _print_report(report)
    except (ConfigError, OSError) as exc:
        # an OSError here is a report's output path that cannot be written:
        # a missing directory, a directory
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return 2


if __name__ == "__main__":
    sys.exit(main())
