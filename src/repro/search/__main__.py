"""Command-line entry point: ``python -m repro.search``.

Two spellings:

* a JSON scenario config (the declarative schema of
  :mod:`repro.search.config`)::

      python -m repro.search configs/toyspeck_r3.json --registry registry/

* inline flags for a quick search without a config file::

      python -m repro.search --scenario toyspeck --rounds 3 --generations 6

* a multi-config **sweep**, optionally resumable::

      python -m repro.search cfgs/a.json cfgs/b.json --resume runs/sweep1

  Each config file holds one scenario dict or a list of them; every
  scenario is an independent cell (``--workers N`` runs that many in
  parallel) and with ``--resume DIR`` each becomes a persistent job
  under ``DIR/queue/search`` — a re-run after an interruption skips the
  scenarios that already finished (see :mod:`repro.jobs`).

Without ``--registry`` the pipeline stops after training (``--search-only``
stops before it); with one, the trained distinguisher is registered and
its manifest records the discovered difference set, so
``python -m repro.serve --registry ...`` serves it immediately.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.errors import ReproError
from repro.search.config import SCENARIO_BUILDERS, ScenarioSpec
from repro.search.evolve import SearchConfig
from repro.search.pipeline import (
    load_sweep,
    run_search,
    run_search_pipeline,
    run_sweep,
)


def _spec_from_args(args) -> ScenarioSpec:
    if args.config:
        spec = ScenarioSpec.from_json(args.config[0])
    else:
        search = {}
        for key, value in (
            ("population_size", args.population),
            ("generations", args.generations),
            ("n_samples", args.samples),
            ("seed", args.seed),
        ):
            if value is not None:
                search[key] = value
        raw = {
            "name": args.name or f"{args.scenario}-r{args.rounds}-search",
            "scenario": args.scenario,
            "params": {"rounds": args.rounds},
            "search": search,
        }
        if args.train_samples is not None:
            raw["train"] = {"num_samples": args.train_samples}
        spec = ScenarioSpec.from_dict(raw)
    return spec


def _print_ranked(result) -> None:
    print(f"ranked differences (noise floor {result.noise_floor:.4f}, "
          f"{result.evaluations} candidates evaluated):")
    for rank, (mask, score) in enumerate(
        zip(result.ranked_masks, result.ranked_scores), start=1
    ):
        words = " ".join(f"{int(w):0{mask.dtype.itemsize * 2}x}" for w in mask)
        print(f"  #{rank}  [{words}]  score {score:.4f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-search",
        description="Automated input-difference search: "
        "search -> train -> register.",
    )
    parser.add_argument(
        "config", nargs="*", default=[],
        help="JSON scenario config(s) (see EXPERIMENTS.md for the schema); "
        "omit to use the inline flags.  More than one file — or a file "
        "holding a list of scenarios — runs as a sweep",
    )
    parser.add_argument(
        "--scenario", default="toyspeck",
        choices=sorted(SCENARIO_BUILDERS),
        help="scenario family for inline mode (default: toyspeck)",
    )
    parser.add_argument("--rounds", type=int, default=3,
                        help="round reduction for inline mode")
    parser.add_argument("--name", default=None,
                        help="experiment/model name (inline mode)")
    parser.add_argument("--population", type=int, default=None,
                        help=f"population size (default "
                        f"{SearchConfig.population_size})")
    parser.add_argument("--generations", type=int, default=None,
                        help=f"generations (default {SearchConfig.generations})")
    parser.add_argument("--samples", type=int, default=None,
                        help="oracle samples per candidate score "
                        f"(default {SearchConfig.n_samples})")
    parser.add_argument("--seed", type=int, default=None, help="search seed")
    parser.add_argument("--train-samples", type=int, default=None,
                        help=f"offline training samples")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes (scores and results are "
                        "identical for any value)")
    parser.add_argument("--registry", default=None,
                        help="model-registry directory; registers the "
                        "trained distinguisher when given")
    parser.add_argument("--search-only", action="store_true",
                        help="stop after the search stage (no training)")
    parser.add_argument("--resume", metavar="DIR", default=None,
                        help="run the sweep resumably: persist each "
                        "scenario as a job under DIR/queue/search and "
                        "skip scenarios completed by earlier invocations")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the result as JSON on stdout")
    args = parser.parse_args(argv)

    if args.as_json:
        # keep stdout machine-readable: route console logs to stderr
        from repro.obs import log as obs_log

        obs_log.configure(stream=sys.stderr)

    try:
        sweep = args.resume is not None or len(args.config) > 1
        if not sweep and len(args.config) == 1:
            # a single file holding a list is a sweep too
            raws = load_sweep(args.config)
            sweep = len(raws) > 1
        if sweep:
            if args.search_only:
                parser.error("--search-only does not apply to sweeps")
            raws = load_sweep(args.config) if args.config else None
            if raws is None:
                parser.error("a sweep needs at least one config file")
            queue_dir = (
                Path(args.resume) / "queue" / "search"
                if args.resume is not None
                else None
            )
            summaries = run_sweep(
                raws,
                registry_dir=args.registry,
                workers=args.workers,
                queue_dir=queue_dir,
                verbose=not args.as_json,
            )
            if args.as_json:
                print(json.dumps(summaries, indent=2))
            else:
                for summary in summaries:
                    print(
                        f"[{summary['name']}] validation accuracy "
                        f"{summary['training']['validation_accuracy']:.4f}"
                        + (
                            f", registered v{summary['version']}"
                            if "version" in summary
                            else ""
                        )
                    )
            return 0
        spec = _spec_from_args(args)
        if args.search_only:
            result = run_search(spec, workers=args.workers)
            if args.as_json:
                print(json.dumps(result.summary(), indent=2))
            else:
                _print_ranked(result)
            return 0
        registry = None
        if args.registry is not None:
            from repro.serve import ModelRegistry

            registry = ModelRegistry(args.registry)
        summary = run_search_pipeline(
            spec, registry=registry, workers=args.workers,
            verbose=not args.as_json,
        )
        if args.as_json:
            print(json.dumps(summary, indent=2))
        else:
            if summary.get("search"):
                print(f"[{spec.name}] best score "
                      f"{summary['search']['ranked_scores'][0]:.4f} after "
                      f"{summary['search']['evaluations']} evaluations")
            print(f"[{spec.name}] differences: {summary['differences']}")
            print(f"[{spec.name}] validation accuracy "
                  f"{summary['training']['validation_accuracy']:.4f}")
            if "model_id" in summary:
                print(f"[{spec.name}] registered as "
                      f"{summary.get('name')} v{summary['version']} "
                      f"({summary['model_id'][:16]}...)")
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
