"""``python -m repro`` -- fleet experiments from the shell.

The CLI is a thin veneer over :class:`~repro.api.config.ExperimentConfig`
and :class:`~repro.api.session.FleetSession`: flags build the exact same
config object the Python API takes, so a shell run is as reproducible as
a scripted one (identical config, identical fleet fingerprint).  One
table, :data:`CONFIG_FLAGS`, gives each config field its flag, so the
"reproduce with" line of ``fleet run`` states every field.  ``--param``
accepts only the parameters the scenario declares (else exit code 2).

Commands::

    repro fleet run --scenario fleet_replay_storm --vehicles 5000 \
        --workers 4 --json out.json
    repro fleet run --config experiment.json          # replay a saved config
    repro fleet run --scenario mixed_ev_dos --vehicles 500 \
        --metrics metrics.json                        # telemetry snapshot
    repro metrics show metrics.json                   # render a snapshot
    repro scenarios list                              # registered workloads
    repro scenarios show fleet_replay_storm           # one workload in detail
    repro config presets                              # named preset overrides
    repro config show --preset throughput --scenario mixed_ev_dos --vehicles 500
    repro service start --db service.db --port 8320 --drain-workers 2
    repro jobs submit --scenario mixed_ev_dos --vehicles 500 --wait
    repro jobs list --state done
    repro jobs show 3
    repro jobs cancel 3
    repro jobs gc --db service.db --max-age 86400     # drop old terminal jobs

``fleet run --json PATH`` writes ``{"config", "summary", "fingerprint"}``;
feeding ``config`` back through ``--config`` (or
``ExperimentConfig.from_dict``) reproduces the run bit for bit.
``--metrics PATH`` additionally enables session telemetry and writes the
merged parent + worker snapshot (``--metrics-format`` picks JSON or
Prometheus text) -- a runtime option, not a config field, so the
fingerprint is identical with or without it.

Only the ``service`` and ``jobs`` handlers import :mod:`repro.service`
(SQLite, ``http.server``), so ``fleet run`` never loads it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import TYPE_CHECKING, Callable, Sequence

from repro.api.config import PRESETS, ExperimentConfig
from repro.api.session import FleetSession
from repro.fleet.resilience import FaultPlan, FleetExecutionError
from repro.fleet.scenarios import get_scenario, registered_scenarios
from repro.fleet.transfer import SPEC_TRANSFER_MODES
from repro.obs.export import (
    EXPORT_FORMATS,
    MetricsSnapshot,
    format_snapshot,
    to_prometheus,
    write_snapshot,
)

if TYPE_CHECKING:  # pragma: no cover - the handlers import it on use
    from repro.service.client import ServiceClient

PROG = "repro"

#: Default endpoint the ``jobs`` client verbs talk to.
DEFAULT_SERVICE_URL = "http://127.0.0.1:8320"


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _parse_param(text: str) -> tuple[str, object]:
    """Parse one ``--param KEY=VALUE`` (VALUE as JSON, else a bare string)."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise argparse.ArgumentTypeError(
            f"expected KEY=VALUE, got {text!r}"
        )
    try:
        value: object = json.loads(raw)
    except ValueError:
        value = raw
    return key, value


def _or_none(parse: Callable[[str], object]) -> Callable[[str], object]:
    """*parse*, except that ``none`` (any case) reads as ``None``."""

    def parse_or_none(text: str) -> object:
        return None if text.lower() == "none" else parse(text)

    parse_or_none.__name__ = parse.__name__  # argparse names it in errors
    return parse_or_none


_TOGGLE = {"action": argparse.BooleanOptionalAction}

#: The CLI form of every :class:`ExperimentConfig` field, as
#: ``field: (flag, argparse options, help)``.  This one table builds the
#: parser (:func:`_add_config_flags`), resolves the flags into a config
#: (:func:`_resolve_config`) and renders a config back into flags
#: (:func:`config_arguments`, behind ``ExperimentConfig.cli_arguments``).
CONFIG_FLAGS: dict[str, tuple[str, dict, str]] = {
    "scenario": ("--scenario", {}, "registered fleet scenario name"),
    "vehicles": ("--vehicles", {"type": int}, "fleet size"),
    "seed": ("--seed", {"type": int}, "master seed (default 0)"),
    "first_vehicle_id": (
        "--first-vehicle-id", {"type": int}, "id of the first vehicle"
    ),
    "enforcement": (
        "--enforcement",
        {"type": _or_none(str), "metavar": "LABEL|none"},
        "fleet-wide enforcement label overriding the scenario mix "
        "('none', the default, keeps the mix)",
    ),
    "scenario_parameters": (
        "--param",
        {"action": "append", "type": _parse_param, "metavar": "KEY=VALUE"},
        "override a parameter the scenario declares (VALUE parsed as JSON; "
        "repeatable); a KEY the scenario does not declare is refused",
    ),
    "reference": (
        "--reference",
        _TOGGLE,
        "run the reference path (full traces, unbounded inboxes, a fresh "
        "car per vehicle, the object decision path, every vehicle through "
        "the kernel) instead of the fast path; fingerprints are identical",
    ),
    "workers": ("--workers", {"type": int}, "worker processes"),
    "chunk_size": (
        "--chunk-size",
        {"type": _or_none(int), "metavar": "N|none"},
        "most vehicles per work item; an item also closes at "
        "ceil(N / (workers + 2)) kernel runs ('none', the default, sizes "
        "N from the fleet size and worker count)",
    ),
    "spec_transfer": (
        "--spec-transfer",
        {"choices": list(SPEC_TRANSFER_MODES)},
        "how spec chunks reach workers: 'shm' moves columnar blocks "
        "through shared memory (default; falls back to pickle where "
        "unavailable), 'pickle' sends pickled lists -- fingerprints "
        "are identical either way",
    ),
    "retry": (
        "--max-retries",
        {"type": int, "metavar": "N"},
        "re-executions of a failed chunk before giving up (0 disables)",
    ),
    "chunk_timeout_s": (
        "--chunk-timeout",
        {"type": _or_none(float), "metavar": "SECONDS|none"},
        "per-chunk deadline after which the worker counts as dead or "
        "hung and the chunk is re-queued ('none' waits forever)",
    ),
    "degrade": (
        "--degrade",
        _TOGGLE,
        "degrade gracefully (shm->pickle, then parallel->inline) when "
        "retries exhaust, instead of aborting the run",
    ),
}


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """``--config``, ``--preset`` and one flag per :data:`CONFIG_FLAGS` row.

    A field flag the user did not pass sets nothing (``SUPPRESS``), so
    only passed flags override the preset / config-file / dataclass
    defaults (:func:`_resolve_config`).
    """
    parser.add_argument(
        "--config",
        dest="config_file",
        metavar="PATH",
        help="load an ExperimentConfig JSON file (flags override its fields)",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        help="start from a named preset (flags override its fields)",
    )
    for name, (flag, options, help_text) in CONFIG_FLAGS.items():
        parser.add_argument(
            flag, dest=name, default=argparse.SUPPRESS, help=help_text, **options
        )


def config_arguments(config: ExperimentConfig) -> list[str]:
    """The flags that rebuild *config*: every field of :data:`CONFIG_FLAGS`.

    An optional field that is unset reads ``none``, so the command pins
    every execution setting, as the ``--json`` report does.
    """
    data = config.to_dict()
    argv: list[str] = []
    for name, (flag, options, _) in CONFIG_FLAGS.items():
        value = data[name]
        action = options.get("action")
        if action is argparse.BooleanOptionalAction:
            argv.append(flag if value else "--no-" + flag[2:])
        elif action == "append":
            for key, item in value.items():
                encoded = json.dumps(item, separators=(",", ":"))
                argv += _flag_value(flag, f"{key}={encoded}")
        else:
            argv += _flag_value(flag, "none" if value is None else str(value))
    return argv


def _flag_value(flag: str, text: str) -> list[str]:
    # argparse reads a separate token that starts with '-' as an option.
    return [f"{flag}={text}"] if text.startswith("-") else [flag, text]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Fleet experiments over the policy-enforcement simulation.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    fleet = commands.add_parser("fleet", help="run fleet experiments")
    fleet_commands = fleet.add_subparsers(dest="subcommand", required=True)
    run = fleet_commands.add_parser(
        "run", help="run one experiment described by flags, a preset or a file"
    )
    _add_config_flags(run)
    run.add_argument(
        "--json",
        dest="json_path",
        metavar="PATH",
        help="write config + summary + fingerprint to PATH as JSON",
    )
    run.add_argument(
        "--progress",
        type=int,
        default=0,
        metavar="N",
        help="print a streamed progress line every N vehicles",
    )
    run.add_argument(
        "--metrics",
        dest="metrics_path",
        metavar="PATH",
        help=(
            "enable telemetry and write the merged metrics snapshot to "
            "PATH (fingerprints are identical with or without it)"
        ),
    )
    run.add_argument(
        "--metrics-format",
        choices=list(EXPORT_FORMATS),
        default="json",
        help="snapshot format for --metrics (default: json)",
    )
    run.add_argument(
        "--fail-fast",
        action="store_true",
        help=(
            "abort on the first worker failure: shorthand for "
            "--max-retries 0 --no-degrade, overriding both"
        ),
    )
    run.add_argument(
        "--inject-faults",
        metavar="SPEC",
        default=None,
        help=(
            "deterministic fault schedule for chaos testing, e.g. "
            "'worker_crash:chunk=3' or "
            "'chunk_error:chunk=0,attempt=any;stall:chunk=2,seconds=1.5' "
            "(a session option: fingerprints are identical with or "
            "without it; a worker-side fault or shm_drop aimed at a chunk "
            "whose every behaviour key the outcome memo already serves "
            "cannot fire, because that chunk is never sent to a worker)"
        ),
    )
    run.set_defaults(func=_cmd_fleet_run)

    scenarios = commands.add_parser("scenarios", help="inspect the scenario registry")
    scenario_commands = scenarios.add_subparsers(dest="subcommand", required=True)
    listing = scenario_commands.add_parser("list", help="list registered scenarios")
    listing.add_argument("--json", dest="as_json", action="store_true")
    listing.set_defaults(func=_cmd_scenarios_list)
    show = scenario_commands.add_parser("show", help="show one scenario in detail")
    show.add_argument("name")
    show.add_argument("--json", dest="as_json", action="store_true")
    show.set_defaults(func=_cmd_scenarios_show)

    metrics = commands.add_parser("metrics", help="inspect telemetry snapshots")
    metrics_commands = metrics.add_subparsers(dest="subcommand", required=True)
    metrics_show = metrics_commands.add_parser(
        "show", help="render a JSON metrics snapshot written by fleet run"
    )
    metrics_show.add_argument("path", help="snapshot file (JSON)")
    metrics_show.add_argument(
        "--format",
        choices=["table", *EXPORT_FORMATS],
        default="table",
        help="rendering (default: human-readable table)",
    )
    metrics_show.set_defaults(func=_cmd_metrics_show)

    config = commands.add_parser("config", help="inspect experiment configuration")
    config_commands = config.add_subparsers(dest="subcommand", required=True)
    presets = config_commands.add_parser("presets", help="list the named presets")
    presets.set_defaults(func=_cmd_config_presets)
    show_config = config_commands.add_parser(
        "show", help="print the full config a set of flags resolves to"
    )
    _add_config_flags(show_config)
    show_config.set_defaults(func=_cmd_config_show)

    service = commands.add_parser(
        "service", help="run the persistent experiment service"
    )
    service_commands = service.add_subparsers(dest="subcommand", required=True)
    start = service_commands.add_parser(
        "start", help="start the HTTP endpoint and its drain workers"
    )
    start.add_argument(
        "--db", required=True, metavar="PATH", help="SQLite job-store path"
    )
    start.add_argument("--host", default="127.0.0.1")
    start.add_argument("--port", type=int, default=8320)
    start.add_argument(
        "--drain-workers",
        type=int,
        default=1,
        metavar="N",
        help="drain-worker processes executing queued jobs (default 1)",
    )
    start.add_argument(
        "--lease",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="job lease duration; a crashed worker's job requeues after this",
    )
    start.add_argument(
        "--poll",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="idle worker poll interval",
    )
    start.add_argument(
        "--verbose", action="store_true", help="log every HTTP request"
    )
    start.set_defaults(func=_cmd_service_start)

    jobs = commands.add_parser(
        "jobs", help="submit and inspect jobs on a running service"
    )
    jobs_commands = jobs.add_subparsers(dest="subcommand", required=True)

    submit = jobs_commands.add_parser(
        "submit", help="submit one experiment (same flags as fleet run)"
    )
    submit.add_argument("--url", default=DEFAULT_SERVICE_URL, help="service endpoint")
    _add_config_flags(submit)
    submit.add_argument("--priority", type=int, default=0)
    submit.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="executions before the job fails terminally (default 3)",
    )
    submit.add_argument(
        "--wait",
        action="store_true",
        help="block until the job finishes and print its fingerprint",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        metavar="SECONDS",
        help="--wait deadline (client-side; the job keeps running)",
    )
    submit.set_defaults(func=_client_command(_cmd_jobs_submit))

    jobs_list = jobs_commands.add_parser("list", help="list jobs, newest first")
    jobs_list.add_argument("--url", default=DEFAULT_SERVICE_URL)
    jobs_list.add_argument("--state", default=None, help="only jobs in this job state")
    jobs_list.add_argument("--limit", type=int, default=100)
    jobs_list.add_argument("--json", dest="as_json", action="store_true")
    jobs_list.set_defaults(func=_client_command(_cmd_jobs_list))

    jobs_show = jobs_commands.add_parser("show", help="show one job in detail")
    jobs_show.add_argument("job_id", type=int)
    jobs_show.add_argument("--url", default=DEFAULT_SERVICE_URL)
    jobs_show.add_argument("--json", dest="as_json", action="store_true")
    jobs_show.set_defaults(func=_client_command(_cmd_jobs_show))

    jobs_cancel = jobs_commands.add_parser(
        "cancel", help="cancel a queued or leased job"
    )
    jobs_cancel.add_argument("job_id", type=int)
    jobs_cancel.add_argument("--url", default=DEFAULT_SERVICE_URL)
    jobs_cancel.set_defaults(func=_client_command(_cmd_jobs_cancel))

    jobs_gc = jobs_commands.add_parser(
        "gc", help="delete old terminal jobs straight from the store"
    )
    jobs_gc.add_argument("--db", required=True, metavar="PATH")
    jobs_gc.add_argument(
        "--max-age",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="only delete jobs finished at least this long ago (default: all)",
    )
    jobs_gc.add_argument(
        "--include-results",
        action="store_true",
        help="also drop cached results no surviving job references",
    )
    jobs_gc.set_defaults(func=_cmd_jobs_gc)

    return parser


# ---------------------------------------------------------------------------
# Config resolution
# ---------------------------------------------------------------------------


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    """Build the ExperimentConfig a ``fleet run``/``config show`` call means."""
    overrides = {
        name: value for name, value in vars(args).items() if name in CONFIG_FLAGS
    }

    if args.config_file:
        if args.preset:
            raise ValueError(
                "--preset cannot be combined with --config: the file already "
                "pins every field a preset would set"
            )
        with open(args.config_file, encoding="utf-8") as handle:
            data = json.load(handle)
        if isinstance(data, dict) and isinstance(data.get("config"), dict):
            # A ``fleet run --json`` report: replay its config block.
            data = data["config"]
        if not isinstance(data, dict):
            raise ValueError(f"{args.config_file}: expected a JSON object")
        return ExperimentConfig.from_dict(data).with_overrides(**overrides)

    scenario = overrides.pop("scenario", None)
    vehicles = overrides.pop("vehicles", None)
    if scenario is None or vehicles is None:
        raise ValueError(
            "--scenario and --vehicles are required unless --config is given"
        )
    if args.preset:
        return ExperimentConfig.preset(args.preset, scenario, vehicles, **overrides)
    return ExperimentConfig(scenario=scenario, vehicles=vehicles, **overrides)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    if args.fail_fast:
        config = config.with_overrides(retry=0, degrade=False)
    fault_plan = (
        FaultPlan.parse(args.inject_faults) if args.inject_faults else None
    )
    telemetry = bool(args.metrics_path)
    with FleetSession(config, telemetry=telemetry, fault_plan=fault_plan) as session:
        count = 0
        for outcome in session.iter_outcomes():
            count += 1
            if args.progress and count % args.progress == 0:
                print(
                    f"  ... {count}/{config.vehicles} vehicles "
                    f"(last: id={outcome.vehicle_id} {outcome.enforcement}, "
                    f"{outcome.frames_transmitted} frames)"
                )
        result = session.last_result
        snapshot = session.metrics_snapshot() if telemetry else None
    assert result is not None
    print(f"scenario       : {result.scenario}")
    for key, value in result.summary().items():
        if key not in ("scenario", "fingerprint"):
            print(f"{key:<22}: {value}")
    print(f"{'fingerprint':<22}: {result.fingerprint()}")
    print(f"{'reproduce with':<22}: {config.cli_command()}")
    if args.json_path:
        payload = {
            "config": config.to_dict(),
            "summary": result.summary(),
            "fingerprint": result.fingerprint(),
        }
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"{'json report':<22}: {args.json_path}")
    if snapshot is not None:
        write_snapshot(snapshot, args.metrics_path, format=args.metrics_format)
        print(f"{'metrics snapshot':<22}: {args.metrics_path} ({args.metrics_format})")
    return 0


def _cmd_metrics_show(args: argparse.Namespace) -> int:
    with open(args.path, encoding="utf-8") as handle:
        snapshot = MetricsSnapshot.from_json(handle.read())
    if args.format == "json":
        print(snapshot.to_json())
    elif args.format == "prom":
        print(to_prometheus(snapshot), end="")
    else:
        print(format_snapshot(snapshot), end="")
    return 0


def _scenario_payload(scenario) -> dict:
    return {
        "name": scenario.name,
        "description": scenario.description,
        "duration_s": scenario.duration_s,
        "mix": dict(scenario.mix),
        "parameters": dict(scenario.parameters),
    }


def _cmd_scenarios_list(args: argparse.Namespace) -> int:
    scenarios = list(registered_scenarios())
    if args.as_json:
        print(json.dumps([_scenario_payload(s) for s in scenarios], indent=2))
        return 0
    width = max((len(s.name) for s in scenarios), default=0)
    for scenario in scenarios:
        print(f"{scenario.name:<{width}}  {scenario.description}")
    return 0


def _cmd_scenarios_show(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.name)
    if args.as_json:
        print(json.dumps(_scenario_payload(scenario), indent=2))
        return 0
    print(f"name        : {scenario.name}")
    print(f"description : {scenario.description}")
    print(f"duration_s  : {scenario.duration_s}")
    print("mix         :")
    for label, weight in scenario.mix:
        print(f"  {label:<14} {weight}")
    print("parameters  :")
    if scenario.parameters:
        for key, value in scenario.parameters:
            print(f"  {key:<14} {value!r}")
    else:
        print("  (none)")
    return 0


def _cmd_config_presets(args: argparse.Namespace) -> int:
    print(json.dumps(PRESETS, indent=2, sort_keys=True))
    return 0


def _cmd_config_show(args: argparse.Namespace) -> int:
    config = _resolve_config(args)
    print(config.to_json())
    return 0


def _cmd_service_start(args: argparse.Namespace) -> int:
    from repro.service.server import ExperimentService

    service = ExperimentService(
        args.db,
        host=args.host,
        port=args.port,
        drain_workers=args.drain_workers,
        lease_s=args.lease,
        poll_s=args.poll,
        quiet=not args.verbose,
    )

    def _request_stop(signum, frame):  # noqa: ARG001 (signal signature)
        service.request_stop()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    service.start()
    print(f"service        : {service.url}")
    print(f"database       : {args.db}")
    print(f"drain workers  : {args.drain_workers} (lease {args.lease:g}s)")
    print("stop with SIGTERM or Ctrl-C", flush=True)
    try:
        while not service._stop_requested.wait(0.2):
            pass
    finally:
        service.stop()
    print("service stopped")
    return 0


def _job_lines(payload: dict) -> list[str]:
    lines = [
        f"job            : {payload['id']} ({payload['state']})",
        f"config hash    : {payload['config_hash']}",
        f"attempts       : {payload['attempts']}/{payload['max_attempts']}",
    ]
    if payload.get("worker"):
        lines.append(f"worker         : {payload['worker']}")
    if payload.get("error"):
        lines.append(f"error          : {payload['error']}")
    result = payload.get("result")
    if result is not None:
        lines.append(f"fingerprint    : {result['fingerprint']}")
    return lines


def _client_command(handler):
    """A ``jobs`` verb that talks to ``--url``: *handler* gets the client.

    A :class:`~repro.service.client.ServiceError` (the service refused
    or is unreachable) is a client-side problem with a clean one-line
    diagnosis: exit code 2.
    """

    def run(args: argparse.Namespace) -> int:
        from repro.service.client import ServiceClient, ServiceError

        try:
            return handler(args, ServiceClient(args.url))
        except ServiceError as error:
            print(f"{PROG}: error: {error}", file=sys.stderr)
            return 2

    return run


def _cmd_jobs_submit(args: argparse.Namespace, client: ServiceClient) -> int:
    config = _resolve_config(args)
    payload = client.submit(
        config, priority=args.priority, max_attempts=args.max_attempts
    )
    cached = " (result already cached)" if payload.get("cached") else ""
    print(f"submitted      : job {payload['id']}{cached}")
    print(f"config hash    : {payload['config_hash']}")
    if not args.wait:
        return 0
    final = client.wait(payload["id"], timeout_s=args.timeout)
    for line in _job_lines(final):
        print(line)
    return 0 if final["state"] == "done" else 3


def _cmd_jobs_list(args: argparse.Namespace, client: ServiceClient) -> int:
    from repro.service.store import JOB_STATES

    if args.state is not None and args.state not in JOB_STATES:
        raise ValueError(f"unknown job state {args.state!r}; known: {JOB_STATES}")
    jobs = client.jobs(state=args.state, limit=args.limit)
    if args.as_json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    for job in jobs:
        error = f"  {job['error']}" if job.get("error") else ""
        print(
            f"{job['id']:>6}  {job['state']:<9} "
            f"{job['config_hash'][:12]}  "
            f"attempts {job['attempts']}/{job['max_attempts']}{error}"
        )
    if not jobs:
        print("(no jobs)")
    return 0


def _cmd_jobs_show(args: argparse.Namespace, client: ServiceClient) -> int:
    payload = client.job(args.job_id)
    if args.as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for line in _job_lines(payload):
        print(line)
    return 0


def _cmd_jobs_cancel(args: argparse.Namespace, client: ServiceClient) -> int:
    payload = client.cancel(args.job_id)
    print(f"cancelled      : job {payload['id']}")
    return 0


def _cmd_jobs_gc(args: argparse.Namespace) -> int:
    from repro.service.store import ServiceStore

    with ServiceStore(args.db) as store:
        stats = store.cache_stats()
        deleted = store.gc(
            max_age_s=args.max_age, include_results=args.include_results
        )
    print(f"jobs deleted   : {deleted['jobs']}")
    print(f"results deleted: {deleted['results']}")
    print(f"cache          : {stats['entries']} entries, {stats['hits']} hits")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. ``| head``) closed the pipe; that is
        # not an experiment failure.
        return 0
    except FleetExecutionError as error:
        # A worker-side failure that survived the retry budget: one
        # diagnostic line, not a raw multiprocessing traceback.
        print(f"{PROG}: error: {error}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as error:
        message = error.args[0] if error.args else error
        print(f"{PROG}: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via python -m repro
    sys.exit(main())
