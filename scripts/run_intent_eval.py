#!/usr/bin/env python3
"""Run the tiered intent-accuracy harness on the generated corpus.

By default the deterministic rule-based resolver is scored; pass --endpoint
to score a live chat-completion endpoint instead (the URL can also come from
the HANDOVER_ENDPOINT_URL environment variable), found by the rule that
``handover evaluate`` uses. As there, an endpoint that cannot be asked ends
the run with exit 1 and its error on stderr.
"""

import argparse
import json
import sys
from pathlib import Path

from handover import synthetic
from handover.errors import HandoverError
from handover.intent import EndpointConfig, EndpointResolver, RuleResolver, evaluate_corpus


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--endpoint", help="chat-completion endpoint URL")
    parser.add_argument("--model", default=None)
    parser.add_argument("--report", default="intent_report.json")
    parser.add_argument("--show-failures", action="store_true")
    args = parser.parse_args()

    catalog = synthetic.default_catalog()
    corpus = synthetic.sample_corpus(catalog)

    try:
        config = EndpointConfig.from_env(None, base_url=args.endpoint, model=args.model)
        if config is None:
            resolver = RuleResolver(catalog)
            print("resolver: offline rules")
        else:
            resolver = EndpointResolver(catalog, config)
            print(f"resolver: endpoint {config.base_url}")
        report = evaluate_corpus(corpus, resolver, catalog)
    except HandoverError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(report.to_csv_text(), end="")

    if args.show_failures:
        for item_result in report.items:
            if not item_result.passed:
                item = corpus[item_result.index]
                got = item_result.resolved.to_dict() if item_result.resolved else item_result.error
                print(f"  FAIL [{item.tier}] {item.text!r} -> {got}")

    Path(args.report).write_text(
        json.dumps(report.to_json_dict(), sort_keys=True, indent=1)
    )
    print(f"report written to {args.report}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
