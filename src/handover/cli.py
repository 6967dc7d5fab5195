"""Command-line interface.

Subcommands: infer, imagine, match, evaluate, export. Exit codes: 0 on
success, 1 on a validation failure, 2 on an input/usage error. Primary
results go to stdout or the --out file and are byte-deterministic for
fixed inputs and seeds; timing and error diagnostics go to stderr
(as JSON when --json is set).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import replace

from . import io_formats, pipeline
from .errors import (
    HandoverError,
    InputFormatError,
    SchemaError,
    load_json_file,
    pick_setting,
    reading,
)
from .grasp import SelectionConfig
from .hand_model import checked_keypoints, load_hand_model
from .intent import (
    EndpointConfig,
    EndpointResolver,
    IntentQuery,
    RuleResolver,
    TaskDescription,
    build_prompt,
    evaluate_corpus,
    llm_infer,
    load_catalog,
    load_corpus,
    parse_task_description,
    resolve_intent_rules,
)


def _load_keypoints(path):
    return checked_keypoints(load_json_file(path), SchemaError, str(path))


def _settings(args) -> dict:
    if args.settings:
        doc = load_json_file(args.settings)
        if not isinstance(doc, dict):
            raise SchemaError(f"{args.settings}: settings must be a JSON object")
        return doc
    return {}


def _selection_config(args, settings: dict) -> SelectionConfig:
    default = SelectionConfig()

    def pick(flag_value, key):
        return pick_setting(flag_value, settings, key, default=getattr(default, key))

    with reading("scoring setting"):
        return SelectionConfig(
            distance_weight=float(pick(args.distance_weight, "distance_weight")),
            cosine_mode=str(pick(args.cosine_mode, "cosine_mode")),
            clearance_margin=float(pick(args.clearance, "clearance_margin")),
        )


def _endpoint(args, settings: dict) -> EndpointConfig | None:
    return EndpointConfig.from_env(
        settings.get("endpoint"), base_url=args.endpoint, model=args.model, timeout_s=args.timeout
    )


def hand_models(path) -> dict | None:
    """The hand model of the ``hand-model/1`` file at ``path`` and its mirror
    image, by handedness; None when no path is given."""
    if not path:
        return None
    params = load_hand_model(path)
    mirrored = params.mirrored()
    return {params.handedness: params, mirrored.handedness: mirrored}


def _emit_timing(name: str, seconds: float) -> None:
    print(json.dumps({name: round(seconds, 6)}), file=sys.stderr)


# --- subcommands -----------------------------------------------------------------

def _cmd_infer(args) -> int:
    """--keypoints without --endpoint runs the rules; otherwise the endpoint
    that EndpointConfig.from_env finds is asked, and there must be one."""
    settings = _settings(args)
    catalog = load_catalog(args.catalog)
    if args.keypoints and not args.endpoint:
        query = IntentQuery(text=args.text, keypoints=_load_keypoints(args.keypoints))
        task = resolve_intent_rules(query, catalog)
    else:
        config = _endpoint(args, settings)
        if config is None:
            raise HandoverError("infer needs --keypoints or an endpoint URL")
        image_bytes = None
        if args.image:
            with open(args.image, "rb") as fh:
                image_bytes = fh.read()
        prompt = build_prompt(
            IntentQuery(text=args.text, image_ref=args.image), catalog
        )
        raw = llm_infer(config, prompt, image_bytes)
        task = parse_task_description(raw, catalog)
    print(json.dumps(task.to_dict(), sort_keys=True))
    return 0


def _cmd_imagine(args) -> int:
    settings = _settings(args)
    cloud = io_formats.load_ply(args.cloud)
    task = TaskDescription.from_dict(load_json_file(args.task))

    if args.poses:
        hand_provider = pipeline.CannedPoseProvider.from_file(args.poses)
    else:
        hand_provider = pipeline.ProceduralPoseProvider()
    if args.grasps:
        grasp_provider = pipeline.StaticGraspProvider.from_file(args.grasps)
    else:
        with reading("sampler setting"):
            grasp_provider = pipeline.AntipodalGraspProvider(count=args.count, seed=args.seed)

    config = pipeline.PipelineConfig.default(selection=_selection_config(args, settings))
    if args.hand_model:
        config = replace(config, hand_models=hand_models(args.hand_model))
    start = time.perf_counter()
    result = pipeline.imagine_configuration(task, cloud, hand_provider, grasp_provider, config)
    _emit_timing("imagine_time_s", time.perf_counter() - start)
    pipeline.save_configuration(result, args.out)
    print(args.out)
    return 0 if result.validation.passed else 1


def _cmd_match(args) -> int:
    config = pipeline.load_configuration(args.config, hand_models(args.hand_model))
    joints = _load_keypoints(args.observed_keypoints)
    start = time.perf_counter()
    target = pipeline.match_to_observation(config, joints)
    _emit_timing("match_time_s", time.perf_counter() - start)
    doc = json.dumps(target.to_json_dict(), sort_keys=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(doc)
    print(args.out)
    return 0


def _cmd_evaluate(args) -> int:
    settings = _settings(args)
    catalog = load_catalog(args.catalog)
    corpus = load_corpus(args.corpus)
    config = _endpoint(args, settings)
    resolver = RuleResolver(catalog) if config is None else EndpointResolver(catalog, config)
    report = evaluate_corpus(corpus, resolver, catalog)

    with open(args.report, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=1)
    csv_path = args.report_csv or os.path.splitext(args.report)[0] + ".csv"
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(report.to_csv_text())
    print(report.to_csv_text(), end="")
    return 0


def _cmd_export(args) -> int:
    config = pipeline.load_configuration(args.config, hand_models(args.hand_model))
    io_formats.export_scene(config, args.out)
    print(args.out)
    return 0


# --- parser ----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handover",
        description="Plan handover configurations and match them to an observed hand.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable errors on stderr")
    parser.add_argument("--settings", help="JSON file with default knobs")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("infer", help="resolve a task description from text (+hand)")
    p.add_argument("--text", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--keypoints", help="JSON file with 21x3 hand keypoints")
    p.add_argument("--endpoint", help="chat-completion endpoint URL")
    p.add_argument("--model")
    p.add_argument("--image", help="image file to attach to the endpoint request")
    p.add_argument("--timeout", type=float)
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("imagine", help="assemble a handover configuration")
    p.add_argument("--task", required=True, help="task description JSON")
    p.add_argument("--cloud", required=True, help="object point cloud PLY")
    p.add_argument("--poses", help="canned receiving-pose library JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--grasps", help="grasp candidate file JSON")
    group.add_argument("--sample-antipodal", action="store_true")
    p.add_argument("--hand-model", help="hand model container JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--distance-weight", type=float, dest="distance_weight")
    p.add_argument("--cosine-mode", choices=("signed", "absolute"), dest="cosine_mode")
    p.add_argument("--clearance", type=float)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_imagine)

    p = sub.add_parser("match", help="match a configuration to observed keypoints")
    p.add_argument("--config", required=True)
    p.add_argument("--observed-keypoints", required=True)
    p.add_argument("--hand-model", help="hand model container JSON the record was imagined with")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("evaluate", help="run the tiered intent accuracy harness")
    p.add_argument("--corpus", required=True)
    p.add_argument("--catalog", required=True)
    p.add_argument("--endpoint")
    p.add_argument("--model")
    p.add_argument("--timeout", type=float)
    p.add_argument("--report", required=True)
    p.add_argument("--report-csv", dest="report_csv", help="CSV path (default: report with .csv)")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("export", help="export a configuration as an OBJ scene")
    p.add_argument("--config", required=True)
    p.add_argument("--hand-model", help="hand model container JSON the record was imagined with")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_export)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputFormatError, OSError) as exc:
        _report_error(args, exc)
        return 2
    except HandoverError as exc:
        _report_error(args, exc)
        return 1


def _report_error(args, exc: Exception) -> None:
    if getattr(args, "json", False):
        print(
            json.dumps({"error": type(exc).__name__, "message": str(exc)}),
            file=sys.stderr,
        )
    else:
        print(f"handover: {type(exc).__name__}: {exc}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
