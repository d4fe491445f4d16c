"""Command-line interface.

Run as ``python -m repro`` (or ``python -m repro.cli``); usage and error
messages name the program ``repro-place``.  Subcommands:

``place``
    Place a circuit (a registry spec such as ``qft6`` or ``qft:7``, or a
    circuit file in the text format of :mod:`repro.circuits.qasm`) into an
    environment (a molecule or architecture spec such as
    ``trans-crotonic-acid`` or ``grid:4x4``, or an environment JSON file)
    and print the placement summary.

``sweep``
    Run a Table-3 style threshold sweep of one circuit over one
    environment.  ``--shards N --shard-index K`` executes only shard ``K``
    of the deterministic ``N``-shard partition of the sweep grid — the
    single-invocation shard worker (its ``--output json`` payload is a
    mergeable outcome shard).

``shard``
    The sharded-grid pipeline: ``shard plan`` partitions a sweep grid
    into shard input files plus a ``plan.json``, ``shard run`` executes
    one shard file anywhere (any host with this package), and ``shard
    merge`` verifies and merges the outcome shards back into exactly the
    table a serial ``sweep`` would have printed; a missing, corrupted or
    foreign outcome shard fails the merge with one error line.  See
    ``docs/parallelism.md`` ("Sharding across hosts" and "Crash-safe
    files").

``list``
    List the available circuits, molecules and parameterised families.

``place``, ``sweep`` and ``shard plan`` accept ``--config run.json`` — a
serialised :class:`repro.config.RunConfig` replacing (or defaulted by)
the positional arguments and flags; explicit flags override the file.
``place`` and ``sweep`` accept ``--output json`` for machine-readable
rows + counters; all JSON surfaces share one serialisation helper
(:mod:`repro.analysis.serialization`), so rows written by any of them can
be compared byte for byte.

Every command is a thin delegate of the :class:`repro.api.Session`
façade, so a run launched here is byte-identical to the same
:class:`~repro.config.RunConfig` executed from Python.  Usage errors —
unknown circuit/environment specs, out-of-range ``--shards`` or
``--shard-index``, malformed config files — exit with code 2 and a
one-line message; runtime failures exit with code 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from typing import List, Optional

from repro import api
from repro.analysis import sharding
from repro.analysis.reporting import format_table
from repro.analysis.runner import ExperimentRunner, stderr_progress
from repro.analysis.serialization import (
    atomic_write_text,
    checksummed_payload,
    dump_json,
    outcomes_payload,
    verify_payload_checksum,
)
from repro.analysis.sweep import row_from_outcomes
from repro.api import Session
from repro.config import OUTPUT_FORMATS, RunConfig, check_execution
from repro.core._bitset import node_index_table
from repro.core.config import PlacementOptions
from repro.exceptions import (
    ConfigError,
    ExperimentError,
    PlacementError,
    ReproError,
    UnknownSpecError,
)
from repro.registry import CIRCUITS, ENVIRONMENTS, PLACERS, SHARD_STRATEGIES


# ---------------------------------------------------------------------------
# Flag plumbing: RunConfig = config file (optional) + explicit flags
# ---------------------------------------------------------------------------


def _add_config_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", default=None, metavar="RUN_JSON",
                        help="run-config JSON file (repro.config.RunConfig); "
                             "positional arguments and explicit flags "
                             "override its fields")


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--threshold", type=float, default=None,
                        help="fast-interaction threshold (default: minimal connecting value)")
    parser.add_argument("--max-monomorphisms", type=int, default=None,
                        help="candidate monomorphisms per workspace "
                             "(the paper's k; default: 100)")
    parser.add_argument("--no-fine-tuning", action="store_true",
                        help="disable hill-climbing fine tuning")
    parser.add_argument("--no-lookahead", action="store_true",
                        help="disable the depth-2 lookahead")
    parser.add_argument("--no-leaf-override", action="store_true",
                        help="disable the leaf-target override routing heuristic")
    parser.add_argument("--placer", default=None, metavar="SPEC",
                        help="placement engine spec: exact (default), greedy, "
                             "or anneal[:SEED[xITERS]] (multi-restart: "
                             "anneal:S1,S2,...) — the deterministic "
                             "simulated annealer for hosts where exact "
                             "search is infeasible (see 'repro list' and "
                             "docs/placers.md)")


def _add_output_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--output", choices=OUTPUT_FORMATS, default=None,
                        help="output format: human-readable table, or "
                             "machine-readable JSON rows + counters "
                             "(one shared row format across place, sweep "
                             "and the shard pipeline; default: text)")


def _merged_options(base: PlacementOptions, args: argparse.Namespace) -> PlacementOptions:
    """Placement options = config-file options overridden by explicit flags."""
    changes = {}
    if getattr(args, "threshold", None) is not None:
        changes["threshold"] = args.threshold
    if getattr(args, "max_monomorphisms", None) is not None:
        changes["max_monomorphisms"] = args.max_monomorphisms
    if getattr(args, "no_fine_tuning", False):
        changes["fine_tuning"] = False
    if getattr(args, "no_lookahead", False):
        changes["lookahead"] = False
    if getattr(args, "no_leaf_override", False):
        changes["leaf_override"] = False
    if getattr(args, "placer", None) is not None:
        changes["placer"] = args.placer
    try:
        return base.replace(**changes) if changes else base
    except PlacementError as exc:  # a bad flag value: usage error, exit 2
        raise ConfigError(f"invalid placement options: {exc}") from exc


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Build the run's :class:`RunConfig` from ``--config`` plus flags.

    The config file (when given) provides the defaults; positional
    arguments and explicitly passed flags override it field by field.
    Validation lives in :class:`RunConfig` itself, so a bad combination
    fails with a one-line :class:`ConfigError` (exit code 2).
    """
    base = RunConfig.load(args.config) if getattr(args, "config", None) else None

    def pick(flag, base_value, default):
        if flag is not None:
            return flag
        return base_value if base is not None else default

    circuit = pick(getattr(args, "circuit", None),
                   base.circuit if base else None, None)
    environment = pick(getattr(args, "environment", None),
                       base.environment if base else None, None)
    if circuit is None or environment is None:
        raise ConfigError(
            "a circuit and an environment are required: pass them as "
            "positional arguments or through --config"
        )
    thresholds = getattr(args, "thresholds", None)
    return RunConfig(
        circuit=circuit,
        environment=environment,
        thresholds=pick(tuple(thresholds) if thresholds else None,
                        base.thresholds if base else None, None),
        options=_merged_options(base.options if base else PlacementOptions(), args),
        jobs=pick(getattr(args, "jobs", None), base.jobs if base else None, 1),
        shards=pick(getattr(args, "shards", None), base.shards if base else None, 1),
        shard_index=pick(getattr(args, "shard_index", None),
                         base.shard_index if base else None, None),
        strategy=pick(getattr(args, "strategy", None),
                      base.strategy if base else None, "round-robin"),
        output=pick(getattr(args, "output", None),
                    base.output if base else None, "text"),
    )


# ---------------------------------------------------------------------------
# place
# ---------------------------------------------------------------------------


def _cmd_place(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    session = Session(config)
    result = session.place()
    if config.output == "json":
        # The JSON row has the same shape (and serialisation) as sweep
        # cells and shard outputs; see repro.api.PlaceResult.payload.
        print(dump_json(result.payload()), end="")
        return 0 if result.feasible else 1
    # Re-raise the captured placement error verbatim, so stderr matches a
    # direct place_circuit call (exit code 1 via the ReproError handler).
    result.outcome.raise_if_infeasible(with_context=False)
    placement = result.placement
    print(placement.summary())
    print()
    rows = []
    for stage in placement.stages:
        qubit_order = node_index_table(stage.placement.keys())
        mapping = ", ".join(
            f"{qubit}->{node}"
            for qubit, node in sorted(
                stage.placement.items(), key=lambda kv: qubit_order[kv[0]]
            )
        )
        rows.append([f"stage {stage.index}", f"gates [{stage.start},{stage.stop})",
                     f"{stage.runtime:g} units", mapping])
    for swap in placement.swap_stages:
        rows.append([f"swap {swap.index}->{swap.index + 1}",
                     f"{swap.num_swaps} SWAPs in {swap.depth} layers",
                     f"{swap.runtime:g} units", ""])
    print(format_table(["part", "content", "runtime", "placement"], rows))
    return 0


# ---------------------------------------------------------------------------
# sweep (including the single-invocation shard worker)
# ---------------------------------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _config_from_args(args)
    if config.shards > 1 and config.shard_index is None:
        raise ConfigError(
            "--shards without --shard-index selects nothing to run; pass "
            "--shard-index K to execute one shard, or use "
            "'repro-place shard plan' to write shard files for all of them"
        )
    session = Session(
        config,
        progress=stderr_progress("sweep cell") if args.progress else None,
    )

    if config.shard_index is not None:
        # Shard-worker mode: execute only this invocation's slice of the
        # deterministic N-shard partition.  The JSON payload is a full
        # outcome shard, so N such invocations merge back into the exact
        # serial sweep (repro-place shard merge).
        grid = session.sweep_grid()
        shard = session.sweep_shard(grid=grid)
        if config.output == "json":
            print(dump_json(sharding.outcome_shard_to_payload(shard)), end="")
            return 0
        table_rows = [
            [outcome.label, "ok" if outcome.feasible else "N/A"]
            for outcome in shard.outcomes
        ]
        print(format_table(
            ["cell", "status"], table_rows,
            title=f"shard {shard.shard_index}/{shard.num_shards} "
                  f"({len(shard.outcomes)} of {len(grid.specs)} cells, "
                  f"fingerprint {shard.plan_fingerprint[:12]})",
        ))
        return 0

    result = session.sweep()
    if config.output == "json":
        print(dump_json(result.payload()), end="")
        return 0
    print(result.table())
    return 0


# ---------------------------------------------------------------------------
# shard plan / run / merge
# ---------------------------------------------------------------------------

PLAN_FILE = "plan.json"
PLAN_FORMAT = "repro-shard-plan"


def _cmd_shard_plan(args: argparse.Namespace) -> int:
    if args.shards is None and args.config is None:
        raise ConfigError(
            "shard plan needs --shards N (or a --config file supplying "
            "'shards'); a shard count is the point of planning"
        )
    config = _config_from_args(args)
    session = Session(config)
    grid = session.sweep_grid()
    plan = session.shard_plan(grid=grid)
    os.makedirs(args.out_dir, exist_ok=True)
    shard_files = []
    for index in range(plan.num_shards):
        shard_file = f"shard-{index}.pkl"
        sharding.write_shard(
            plan.shard_input(index), os.path.join(args.out_dir, shard_file)
        )
        shard_files.append(shard_file)
    metadata = plan.metadata()
    metadata.update({
        "format": PLAN_FORMAT,
        "circuit": config.circuit,
        "circuit_name": grid.circuit_name,
        "environment": config.environment,
        "environment_name": grid.environment.name,
        "thresholds": grid.thresholds,
        "cell_index": grid.cell_index,
        "shard_files": shard_files,
    })
    plan_path = os.path.join(args.out_dir, PLAN_FILE)
    atomic_write_text(plan_path, dump_json(checksummed_payload(metadata)))
    print(f"planned {plan.total_cells} cell(s) into {plan.num_shards} shard(s) "
          f"({plan.strategy}, fingerprint {plan.fingerprint[:12]})")
    for index, indices in enumerate(plan.assignments):
        print(f"  shard {index}: {len(indices)} cell(s) -> "
              f"{os.path.join(args.out_dir, shard_files[index])}")
    print(f"plan metadata: {plan_path}")
    return 0


def _cmd_shard_run(args: argparse.Namespace) -> int:
    shard = sharding.read_shard(args.shard_file)
    check_execution(args.jobs)
    runner = ExperimentRunner(
        jobs=args.jobs,
        progress=(
            stderr_progress(f"shard {shard.shard_index} cell")
            if args.progress else None
        ),
    )
    outcome_shard = sharding.execute_shard(shard, runner)
    sharding.write_outcome_shard(outcome_shard, args.out)
    infeasible = sum(1 for o in outcome_shard.outcomes if not o.feasible)
    print(f"shard {shard.shard_index}/{shard.num_shards}: "
          f"{len(outcome_shard.outcomes)} cell(s) "
          f"({infeasible} infeasible) -> {args.out}")
    return 0


_PLAN_REQUIRED_KEYS = (
    "fingerprint", "num_shards", "total_cells", "cell_index", "thresholds",
    "circuit_name", "environment_name",
)


def _read_plan_metadata(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            metadata = json.load(handle)
    except Exception as exc:
        raise ExperimentError(f"cannot read plan file {path!r}: {exc}") from exc
    if not isinstance(metadata, dict) or metadata.get("format") != PLAN_FORMAT:
        raise ExperimentError(
            f"{path!r} is not a shard-plan file (expected format "
            f"{PLAN_FORMAT!r}); pass the plan.json written by "
            "'repro-place shard plan'"
        )
    missing = [key for key in _PLAN_REQUIRED_KEYS if key not in metadata]
    if missing:
        raise ExperimentError(
            f"plan file {path!r} is missing {missing}; the file is "
            "truncated or was not written by 'repro-place shard plan'"
        )
    verify_payload_checksum(metadata, path)
    return metadata


def _cmd_shard_merge(args: argparse.Namespace) -> int:
    shards = [sharding.read_outcome_shard(path) for path in args.shard_outputs]
    merged = sharding.merge_shards(shards)
    output = args.output or "text"
    if args.plan is not None:
        metadata = _read_plan_metadata(args.plan)
        if merged.plan_fingerprint != metadata["fingerprint"]:
            raise ExperimentError(
                f"outcome shards carry fingerprint "
                f"{merged.plan_fingerprint!r} but the plan is "
                f"{metadata['fingerprint']!r}; these shards belong to a "
                "different grid"
            )
        if merged.num_shards != metadata["num_shards"]:
            raise ExperimentError(
                f"outcome shards declare {merged.num_shards} shard(s) but "
                f"the plan has {metadata['num_shards']}"
            )
        if len(merged.outcomes) != metadata["total_cells"]:
            raise ExperimentError(
                f"merged grid has {len(merged.outcomes)} cell(s) but the "
                f"plan describes {metadata['total_cells']}"
            )
        try:
            row = row_from_outcomes(
                merged.outcomes,
                metadata["cell_index"],
                metadata["thresholds"],
                metadata["circuit_name"],
                metadata["environment_name"],
            )
        except (IndexError, TypeError, ValueError) as exc:
            raise ExperimentError(
                f"plan file {args.plan!r} does not describe the merged grid "
                f"({exc!r}); the plan is corrupt or belongs to another run"
            ) from exc
        if output == "json":
            payload = api.sweep_payload(
                row, merged.outcomes, merged.counters, merged.plan_fingerprint
            )
            print(dump_json(payload), end="")
            return 0
        print(api.sweep_table_text(row))
        return 0
    # Plan-less merge: no threshold layout to rebuild a sweep table from,
    # so emit the generic merged payload (rows in grid order + counters).
    if output == "json":
        payload = outcomes_payload(merged.outcomes, counters=merged.counters)
        payload["plan_fingerprint"] = merged.plan_fingerprint
        payload["num_shards"] = merged.num_shards
        print(dump_json(payload), end="")
        return 0
    table_rows = [
        [outcome.label or outcome.circuit_name,
         "ok" if outcome.feasible else "N/A"]
        for outcome in merged.outcomes
    ]
    print(format_table(
        ["cell", "status"], table_rows,
        title=f"merged grid ({merged.num_shards} shard(s), "
              f"fingerprint {merged.plan_fingerprint[:12]})",
    ))
    return 0


def _cmd_shard(args: argparse.Namespace) -> int:
    return args.shard_func(args)


# ---------------------------------------------------------------------------
# list
# ---------------------------------------------------------------------------


def _cmd_list(_: argparse.Namespace) -> int:
    named_circuits = [e for e in CIRCUITS.entries() if not e.parameterised]
    circuit_families = [e for e in CIRCUITS.entries() if e.parameterised]
    molecules = [e for e in ENVIRONMENTS.entries() if not e.parameterised]
    architectures = [e for e in ENVIRONMENTS.entries() if e.parameterised]
    print("benchmark circuits:")
    for entry in named_circuits:
        circuit = entry.factory()
        print(f"  {entry.name:28s} {circuit.num_qubits:3d} qubits  {circuit.num_gates:4d} gates")
    print("molecules:")
    for entry in molecules:
        environment = entry.factory()
        print(f"  {entry.name:28s} {environment.num_qubits:3d} qubits")
    print("parameterised circuits:")
    for entry in circuit_families:
        print(f"  {entry.spec_form():28s} {entry.description}")
    print("architectures:")
    for entry in architectures:
        print(f"  {entry.spec_form():28s} {entry.description}")
    print("placers:")
    for entry in PLACERS.entries():
        form = entry.spec_form() if entry.parameterised else entry.name
        if entry.name == "anneal":
            form = "anneal[:SEED[,SEED...][xITERS]]"
        print(f"  {form:28s} {entry.description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-place",
        description="Quantum circuit placement (Maslov, Falconer, Mosca 2007/2008)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    place_parser = subparsers.add_parser("place", help="place a circuit into an environment")
    place_parser.add_argument("circuit", nargs="?", default=None,
                              help="circuit spec (e.g. qft6, qft:7) or .qc file")
    place_parser.add_argument("environment", nargs="?", default=None,
                              help="environment spec (e.g. histidine, grid:4x4) "
                                   "or environment .json file")
    _add_config_option(place_parser)
    _add_common_options(place_parser)
    _add_output_option(place_parser)
    place_parser.set_defaults(func=_cmd_place)

    sweep_parser = subparsers.add_parser("sweep", help="threshold sweep (Table 3 style)")
    sweep_parser.add_argument("circuit", nargs="?", default=None,
                              help="circuit spec (e.g. qft6, qft:7) or .qc file")
    sweep_parser.add_argument("environment", nargs="?", default=None,
                              help="environment spec (e.g. histidine, chain:12) "
                                   "or environment .json file")
    sweep_parser.add_argument("--thresholds", type=float, nargs="+", default=None,
                              help="threshold values (default: the paper's list)")
    sweep_parser.add_argument("--jobs", type=int, default=None,
                              help="worker processes for the sweep grid "
                                   "(default 1 = serial; results are identical "
                                   "either way)")
    sweep_parser.add_argument("--progress", action="store_true",
                              help="print one line per completed sweep cell to stderr")
    sweep_parser.add_argument("--shards", type=int, default=None,
                              help="partition the sweep grid into this many "
                                   "deterministic shards (use with --shard-index)")
    sweep_parser.add_argument("--shard-index", type=int, default=None,
                              help="execute only this shard of the --shards "
                                   "partition; with --output json the payload "
                                   "is a mergeable outcome shard")
    sweep_parser.add_argument("--strategy", choices=list(SHARD_STRATEGIES.names()),
                              default=None,
                              help="shard partitioning strategy (default: round-robin)")
    _add_config_option(sweep_parser)
    _add_common_options(sweep_parser)
    _add_output_option(sweep_parser)
    sweep_parser.set_defaults(func=_cmd_sweep)

    shard_parser = subparsers.add_parser(
        "shard", help="sharded sweep grids: plan, run one shard, merge outputs"
    )
    shard_subparsers = shard_parser.add_subparsers(dest="shard_command", required=True)

    plan_parser = shard_subparsers.add_parser(
        "plan", help="partition a sweep grid into shard input files + plan.json"
    )
    plan_parser.add_argument("circuit", nargs="?", default=None,
                             help="circuit spec (e.g. qft6, qft:7) or .qc file")
    plan_parser.add_argument("environment", nargs="?", default=None,
                             help="environment spec or environment .json file")
    plan_parser.add_argument("--thresholds", type=float, nargs="+", default=None,
                             help="threshold values (default: the paper's list)")
    plan_parser.add_argument("--shards", type=int, default=None,
                             help="number of shards to partition the grid into")
    plan_parser.add_argument("--strategy", choices=list(SHARD_STRATEGIES.names()),
                             default=None,
                             help="partitioning strategy (default: round-robin)")
    plan_parser.add_argument("--out-dir", required=True,
                             help="directory for plan.json and shard-<i>.pkl files")
    _add_config_option(plan_parser)
    _add_common_options(plan_parser)
    plan_parser.set_defaults(func=_cmd_shard, shard_func=_cmd_shard_plan)

    run_parser = shard_subparsers.add_parser(
        "run", help="execute one shard input file and write its outcome shard"
    )
    run_parser.add_argument("--shard-file", required=True,
                            help="shard input written by 'shard plan'")
    run_parser.add_argument("--out", required=True,
                            help="where to write the JSON outcome shard")
    run_parser.add_argument("--jobs", type=int, default=1,
                            help="local worker processes for this shard's cells")
    run_parser.add_argument("--progress", action="store_true",
                            help="print one line per completed cell to stderr")
    run_parser.set_defaults(func=_cmd_shard, shard_func=_cmd_shard_run)

    merge_parser = shard_subparsers.add_parser(
        "merge", help="verify and merge outcome shards back into one grid"
    )
    merge_parser.add_argument("shard_outputs", nargs="+",
                              help="outcome-shard JSON files (one per shard)")
    merge_parser.add_argument("--plan", default=None,
                              help="plan.json from 'shard plan'; enables the "
                                   "sweep-table rendering and extra verification")
    _add_output_option(merge_parser)
    merge_parser.set_defaults(func=_cmd_shard, shard_func=_cmd_shard_merge)

    list_parser = subparsers.add_parser("list", help="list circuits and environments")
    list_parser.set_defaults(func=_cmd_list)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    Exit codes: 0 success, 1 runtime failure (infeasible placement,
    corrupt shard files, ...), 2 usage error (unknown specs, invalid
    config values) — the message lists the valid registry names.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UnknownSpecError, ConfigError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    gc.freeze()  # see repro/__main__.py: process entry points only
    sys.exit(main())
