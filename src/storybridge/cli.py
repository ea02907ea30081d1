"""Command-line interface.

Every subcommand but eval and make-fixtures reads one declarative JSON
config (--config) and accepts generic --set key=value overrides; the
train-* commands add --out, shorthand for one --set (SETTING_FLAGS).
pipeline runs any subset of the stages (--set stages=enrich) and writes a
manifest; --from-manifest refuses every setting. Knowledge-graph files are
named only in the config's kg list. Exit codes: 0 success, 2 bad or
missing input, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import RunConfig, apply_overrides
from .fixtures import write_fixtures
from .ioutil import InputError
from .pipeline import (
    evaluate_stories,
    rerun_from_manifest,
    run_pipeline,
    train_distiller_command,
    train_generator_command,
    train_lm_command,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


# Dedicated flags per command: (flag, RunConfig field, help). Each is shorthand
# for --set <field>=<value> and wins over a --set of the same field.
SETTING_FLAGS = {
    "train-distiller": [("--out", "distiller_model", "checkpoint path to write")],
    "train-lm": [("--out", "lm_model", "checkpoint path to write")],
    "train-generator": [("--out", "generator_model", "checkpoint path to write")],
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="storybridge",
        description="Distill terms from image features, bridge them with a knowledge graph, generate stories.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(name, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON config file (RunConfig fields)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override one config field")
        for flag, dest, flag_help in SETTING_FLAGS.get(name, ()):
            p.add_argument(flag, dest=dest, help=f"{flag_help} (--set {dest}=...)")
        return p

    common("train-distiller", "train the image-to-term model")
    common("train-lm", "train the term language model")
    p = common("train-generator", "train the term-to-story model")
    p.add_argument("--finetune-from", default="", help="continue from this checkpoint")

    p = common("pipeline", "run the configured stages (distill, enrich, generate) and write a manifest")
    p.add_argument("--out-dir", help="output directory")
    p.add_argument("--from-manifest", help="re-execute a recorded run")

    p = sub.add_parser("eval", help="score generated stories against references")
    p.add_argument("--candidates", required=True, help="stories JSONL")
    p.add_argument("--references", required=True, help="reference corpus JSONL")

    p = sub.add_parser("make-fixtures", help="write the synthetic fixture suite")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed", type=int, default=0)

    return parser


def load_config(args) -> RunConfig:
    """The config file, then every --set item, then the dedicated flags given, through one apply_overrides."""
    config = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = [
        f"{dest}={getattr(args, dest)}"
        for _flag, dest, _help in SETTING_FLAGS.get(args.command, ())
        if getattr(args, dest) is not None
    ]
    return apply_overrides(config, args.set + flags)


def run(args) -> int:
    if args.command == "eval":
        print(json.dumps(evaluate_stories(args.candidates, args.references), sort_keys=True))
        return EXIT_OK
    if args.command == "make-fixtures":
        paths = write_fixtures(args.out_dir, seed=args.seed)
        print(json.dumps(paths, sort_keys=True))
        return EXIT_OK
    given = [option for option, value in (("--config", args.config), ("--set", args.set)) if value]
    if args.command == "pipeline" and args.from_manifest and given:  # pipeline has no dedicated setting flags
        raise InputError(f"--from-manifest replays the manifest's settings; drop {', '.join(given)}")
    config = load_config(args)
    log = lambda msg: print(msg, file=sys.stderr)  # noqa: E731

    if args.command == "train-distiller":
        print(train_distiller_command(config, log=log))
    elif args.command == "train-lm":
        print(train_lm_command(config, log=log))
    elif args.command == "train-generator":
        print(train_generator_command(config, log=log, finetune_from=args.finetune_from))
    elif args.command == "pipeline":
        if args.from_manifest:
            manifest = rerun_from_manifest(args.from_manifest, out_dir=args.out_dir)
        else:
            manifest = run_pipeline(config, out_dir=args.out_dir)
        print(json.dumps(manifest["outputs"], sort_keys=True))
    else:  # pragma: no cover
        raise InputError(f"unknown command {args.command!r}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # noqa: BLE001
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
