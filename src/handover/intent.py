"""Task-intent handling: prompt assembly, template parsing, offline
resolution, remote model client, and the tiered accuracy harness.

The wire format a task travels in is one templated sentence:

    Pass the <tool> to <left|right> hand of human

Parsing is case-insensitive and tolerates surrounding whitespace plus a
trailing period, because live models rarely reproduce templates byte-exactly.
"""

from __future__ import annotations

import base64
import json
import re
import socket
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    EmptyCorpus,
    EndpointTimeout,
    HandoverError,
    NoObjectResolved,
    NonSuccessStatus,
    SchemaError,
    TemplateMismatch,
    TransportError,
    UnknownObject,
    load_json_file,
    pick_setting,
    reading,
)
from .hand_model import checked_keypoints, classify_handedness

TIERS = ("clear", "foggy", "fuzzy")

TEMPLATE_INSTRUCTION = (
    "Respond with exactly one line in the form: "
    "Pass the <tool> to <left|right> hand of human"
)

_TEMPLATE_RE = re.compile(
    r"^\s*pass\s+the\s+(?P<obj>.+?)\s+to\s+(?P<hand>left|right)\s+hand\s+of\s+human\s*\.?\s*$",
    re.IGNORECASE,
)

ENDPOINT_URL_ENV = "HANDOVER_ENDPOINT_URL"
ENDPOINT_TOKEN_ENV = "HANDOVER_ENDPOINT_TOKEN"
ENDPOINT_MODEL_ENV = "HANDOVER_ENDPOINT_MODEL"


# --- catalog and task records ---------------------------------------------------

def _is_name(value) -> bool:
    return isinstance(value, str) and bool(value.strip())


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    synonyms: tuple[str, ...] = ()
    use_cases: tuple[str, ...] = ()


@dataclass(frozen=True)
class ToolCatalog:
    entries: tuple[CatalogEntry, ...]

    def __post_init__(self):
        names = [e.name for e in self.entries]
        if not all(_is_name(n) for n in names):
            raise SchemaError("catalog names must be non-empty strings")
        phrases = [p for e in self.entries for p in (*e.synonyms, *e.use_cases)]
        if not all(isinstance(p, str) for p in phrases):
            raise SchemaError("catalog synonyms and use cases must be strings")
        if len(set(n.lower() for n in names)) != len(names):
            raise SchemaError("catalog names must be unique")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.entries)

    def canonical(self, phrase: str) -> str:
        """Map a parsed object phrase to its canonical name."""
        wanted = " ".join(phrase.lower().split())
        for entry in self.entries:
            if entry.name.lower() == wanted:
                return entry.name
        for entry in self.entries:
            if any(s.lower() == wanted for s in entry.synonyms):
                return entry.name
        raise UnknownObject(f"object {phrase!r} is not in the catalog")

    def to_json_dict(self) -> list:
        return [
            {
                "name": e.name,
                "synonyms": list(e.synonyms),
                "use_cases": list(e.use_cases),
            }
            for e in self.entries
        ]

    @classmethod
    def from_json_dict(cls, data) -> "ToolCatalog":
        if not isinstance(data, list):
            raise SchemaError("catalog must be a JSON array")
        with reading("catalog record"):
            return cls(
                tuple(
                    CatalogEntry(
                        name=item["name"],
                        synonyms=tuple(item.get("synonyms", ())),
                        use_cases=tuple(item.get("use_cases", ())),
                    )
                    for item in data
                )
            )


def load_catalog(path) -> ToolCatalog:
    return ToolCatalog.from_json_dict(load_json_file(path))


def save_catalog(catalog: ToolCatalog, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(catalog.to_json_dict(), fh, sort_keys=True, indent=1)


@dataclass(frozen=True)
class TaskDescription:
    object_name: str
    handedness: str

    def __post_init__(self):
        if not _is_name(self.object_name):
            raise SchemaError(f"object must be a non-empty string, got {self.object_name!r}")
        if self.handedness not in ("left", "right"):
            raise SchemaError(f"handedness must be left/right, got {self.handedness!r}")

    def to_dict(self) -> dict:
        return {"object": self.object_name, "hand": self.handedness}

    @classmethod
    def from_dict(cls, data: dict) -> "TaskDescription":
        with reading("task record"):
            return cls(object_name=data["object"], handedness=data["hand"])


@dataclass(frozen=True, eq=False)
class IntentQuery:
    """User request: text plus either hand keypoints or an opaque image ref."""

    text: str
    keypoints: np.ndarray | None = None  # (21, 3)
    image_ref: str | None = None
    handedness: str | None = None

    def __post_init__(self):
        if self.keypoints is not None:
            object.__setattr__(self, "keypoints", checked_keypoints(self.keypoints, SchemaError))


# --- template rendering / parsing -------------------------------------------------

def render_task_description(task: TaskDescription) -> str:
    return f"Pass the {task.object_name} to {task.handedness} hand of human"


def parse_task_description(raw: str, catalog: ToolCatalog) -> TaskDescription:
    """Parse one templated sentence back into a task description."""
    match = _TEMPLATE_RE.match(raw)
    if match is None:
        raise TemplateMismatch(f"not in template form: {raw!r}")
    return TaskDescription(
        object_name=catalog.canonical(match.group("obj")),
        handedness=match.group("hand").lower(),
    )


def build_prompt(query: IntentQuery, catalog: ToolCatalog) -> str:
    """Deterministic system/user prompt listing each tool exactly once."""
    if not query.text.strip():
        raise HandoverError("query text is empty")
    lines = [
        "System: You hand tools to a human coworker. From the request and the",
        "attached photo of the receiving hand, pick exactly one tool from the",
        "list and identify which hand will receive it.",
        "Available tools: " + ", ".join(catalog.names),
        f"User: {query.text.strip()}",
    ]
    if query.image_ref is not None:
        lines.append("(image of the receiving hand attached)")
    lines.append(TEMPLATE_INSTRUCTION)
    return "\n".join(lines)


# --- offline rule-based resolver ---------------------------------------------------

def _phrase_in(phrase: str, text: str) -> bool:
    return re.search(r"(?<!\w)" + re.escape(phrase.lower()) + r"(?!\w)", text) is not None


def resolve_intent_rules(query: IntentQuery, catalog: ToolCatalog) -> TaskDescription:
    """Deterministic offline resolver.

    Object scoring: canonical-name hit beats synonym hit beats use-case hit;
    ties break to catalog order. Handedness comes from the keypoint
    observation (or an explicit override on the query).
    """
    text = " ".join(query.text.lower().split())
    if not text:
        raise NoObjectResolved("query text is empty")

    best_rank, best_name = 0, None
    for entry in catalog.entries:
        if _phrase_in(entry.name, text):
            rank = 3
        elif any(_phrase_in(s, text) for s in entry.synonyms):
            rank = 2
        elif any(_phrase_in(u, text) for u in entry.use_cases):
            rank = 1
        else:
            continue
        if rank > best_rank:
            best_rank, best_name = rank, entry.name
    if best_name is None:
        raise NoObjectResolved(f"no catalog phrase matches {query.text!r}")

    if query.handedness is not None:
        handed = query.handedness
    elif query.keypoints is not None:
        handed = classify_handedness(query.keypoints)
    else:
        raise HandoverError("resolver needs keypoints or an explicit handedness")
    return TaskDescription(object_name=best_name, handedness=handed)


# --- remote endpoint client ---------------------------------------------------------

@dataclass(frozen=True)
class EndpointConfig:
    """Chat-completion-style HTTP endpoint settings."""

    base_url: str
    model: str = "default"
    timeout_s: float = 30.0
    retries: int = 1
    # kept out of repr so the credential can never reach logs
    api_token: str | None = field(default=None, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.timeout_s):
            raise ValueError(f"timeout_s must be finite, got {self.timeout_s}")

    @classmethod
    def from_env(
        cls,
        settings=None,
        *,
        base_url=None,
        model=None,
        timeout_s=None,
        retries=None,
        api_token=None,
    ) -> "EndpointConfig":
        """Resolve each field with ``pick_setting``: override > environment >
        settings > default.

        ``settings`` is the settings file's ``endpoint`` mapping, or None.
        """
        if settings is None:
            settings = {}
        if not isinstance(settings, dict):
            raise SchemaError("endpoint settings must be a JSON object")
        url = pick_setting(base_url, settings, "base_url", ENDPOINT_URL_ENV)
        if not url:
            raise HandoverError(f"no endpoint URL (flag, {ENDPOINT_URL_ENV} or settings file)")
        with reading("endpoint setting"):
            return cls(
                base_url=url,
                model=pick_setting(model, settings, "model", ENDPOINT_MODEL_ENV, "default"),
                timeout_s=float(pick_setting(timeout_s, settings, "timeout_s", default=30.0)),
                retries=int(pick_setting(retries, settings, "retries", default=1)),
                api_token=pick_setting(api_token, settings, "api_token", ENDPOINT_TOKEN_ENV),
            )


def llm_infer(config: EndpointConfig, prompt: str, image_bytes: bytes | None = None) -> str:
    """POST the prompt (and optional image) and return the model text verbatim.

    Transport, timeout and HTTP-status failures raise distinct errors; only
    transport/timeout failures are retried, up to config.retries extra tries.
    """
    content: list[dict] = [{"type": "text", "text": prompt}]
    if image_bytes is not None:
        encoded = base64.b64encode(image_bytes).decode("ascii")
        content.append(
            {"type": "image_url", "image_url": {"url": f"data:image/png;base64,{encoded}"}}
        )
    payload = json.dumps(
        {"model": config.model, "messages": [{"role": "user", "content": content}]}
    ).encode("utf-8")
    headers = {"Content-Type": "application/json"}
    if config.api_token:
        headers["Authorization"] = f"Bearer {config.api_token}"

    last_error: Exception | None = None
    for _ in range(max(0, config.retries) + 1):
        request = urllib.request.Request(
            config.base_url, data=payload, headers=headers, method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=config.timeout_s) as response:
                body = response.read().decode("utf-8")
            try:
                doc = json.loads(body)
                return doc["choices"][0]["message"]["content"]
            except (json.JSONDecodeError, KeyError, IndexError, TypeError) as exc:
                raise TransportError(f"unexpected response shape: {exc}") from exc
        except urllib.error.HTTPError as exc:
            raise NonSuccessStatus(exc.code, exc.read().decode("utf-8", "replace")) from exc
        except (socket.timeout, TimeoutError) as exc:
            last_error = EndpointTimeout(f"no answer within {config.timeout_s}s")
            last_error.__cause__ = exc
        except urllib.error.URLError as exc:
            if isinstance(exc.reason, (socket.timeout, TimeoutError)):
                last_error = EndpointTimeout(f"no answer within {config.timeout_s}s")
            else:
                last_error = TransportError(f"endpoint unreachable: {exc.reason}")
            last_error.__cause__ = exc
    assert last_error is not None
    raise last_error


# --- evaluation harness ---------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CorpusItem:
    text: str
    tier: str
    truth: TaskDescription
    keypoints: np.ndarray | None = None

    def __post_init__(self):
        if not isinstance(self.text, str):
            raise SchemaError(f"corpus text must be a string, got {self.text!r}")
        if self.tier not in TIERS:
            raise SchemaError(f"tier must be one of {TIERS}, got {self.tier!r}")
        if self.keypoints is not None:
            object.__setattr__(self, "keypoints", checked_keypoints(self.keypoints, SchemaError))


@dataclass(frozen=True)
class TierStats:
    items: int
    passes: int

    @property
    def accuracy(self) -> float:
        return 100.0 * self.passes / self.items


@dataclass(frozen=True)
class ItemResult:
    index: int
    tier: str
    passed: bool
    resolved: TaskDescription | None = None
    error: str | None = None


@dataclass(frozen=True)
class EvalReport:
    tiers: dict[str, TierStats]
    items: tuple[ItemResult, ...]
    missing_tiers: tuple[str, ...] = ()

    @property
    def average_accuracy(self) -> float:
        return tier_average([self.tiers[t].accuracy for t in TIERS if t in self.tiers])

    def to_json_dict(self) -> dict:
        return {
            "tiers": {
                t: {
                    "items": s.items,
                    "passes": s.passes,
                    "accuracy": s.accuracy,
                }
                for t, s in self.tiers.items()
            },
            "missing_tiers": list(self.missing_tiers),
            "average_accuracy": self.average_accuracy,
            "items": [
                {
                    "index": r.index,
                    "tier": r.tier,
                    "passed": r.passed,
                    "resolved": None if r.resolved is None else r.resolved.to_dict(),
                    "error": r.error,
                }
                for r in self.items
            ],
        }

    def to_csv_text(self) -> str:
        lines = ["tier,items,passes,accuracy"]
        total_items = total_passes = 0
        for tier in TIERS:
            if tier not in self.tiers:
                continue
            stats = self.tiers[tier]
            total_items += stats.items
            total_passes += stats.passes
            lines.append(f"{tier},{stats.items},{stats.passes},{stats.accuracy:.4f}")
        lines.append(f"average,{total_items},{total_passes},{self.average_accuracy:.4f}")
        return "\n".join(lines) + "\n"


def tier_average(accuracies: Sequence[float]) -> float:
    """Unweighted mean over the tiers present."""
    if len(accuracies) == 0:
        raise EmptyCorpus("no tiers to average")
    return float(sum(accuracies)) / len(accuracies)


def evaluate_corpus(
    corpus: Sequence[CorpusItem],
    resolver: Callable[[CorpusItem], TaskDescription],
    catalog: ToolCatalog,
) -> EvalReport:
    """Run the resolver over the corpus and score per ambiguity tier.

    An item passes only when both the resolved object and the handedness
    match the ground truth. Resolver failures count as failed items.
    """
    if len(corpus) == 0:
        raise EmptyCorpus("corpus has no items")
    for item in corpus:
        catalog.canonical(item.truth.object_name)  # truth must be in-catalog

    counts = {t: [0, 0] for t in TIERS}
    results = []
    for index, item in enumerate(corpus):
        resolved, error = None, None
        try:
            resolved = resolver(item)
            passed = (
                resolved.object_name == item.truth.object_name
                and resolved.handedness == item.truth.handedness
            )
        except HandoverError as exc:
            passed, error = False, f"{type(exc).__name__}: {exc}"
        counts[item.tier][0] += 1
        counts[item.tier][1] += int(passed)
        results.append(
            ItemResult(index=index, tier=item.tier, passed=passed, resolved=resolved, error=error)
        )

    tiers = {t: TierStats(items=n, passes=p) for t, (n, p) in counts.items() if n > 0}
    missing = tuple(t for t in TIERS if t not in tiers)
    return EvalReport(tiers=tiers, items=tuple(results), missing_tiers=missing)


class RuleResolver:
    """Corpus adapter around resolve_intent_rules."""

    def __init__(self, catalog: ToolCatalog):
        self.catalog = catalog

    def __call__(self, item: CorpusItem) -> TaskDescription:
        query = IntentQuery(text=item.text, keypoints=item.keypoints)
        return resolve_intent_rules(query, self.catalog)


class EndpointResolver:
    """Corpus adapter that round-trips each item through the remote model."""

    def __init__(self, catalog: ToolCatalog, config: EndpointConfig):
        self.catalog = catalog
        self.config = config

    def __call__(self, item: CorpusItem) -> TaskDescription:
        prompt = build_prompt(IntentQuery(text=item.text), self.catalog)
        return parse_task_description(llm_infer(self.config, prompt), self.catalog)


# --- corpus files -----------------------------------------------------------------------

def load_corpus(path) -> list[CorpusItem]:
    data = load_json_file(path)
    if not isinstance(data, list):
        raise SchemaError("corpus must be a JSON array")
    with reading("corpus record"):
        return [
            CorpusItem(
                text=record["text"],
                tier=record["tier"],
                truth=TaskDescription.from_dict(record["truth"]),
                keypoints=record.get("keypoints"),
            )
            for record in data
        ]


def save_corpus(corpus: Sequence[CorpusItem], path) -> None:
    records = []
    for item in corpus:
        record = {"text": item.text, "tier": item.tier, "truth": item.truth.to_dict()}
        if item.keypoints is not None:
            record["keypoints"] = item.keypoints.tolist()
        records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, sort_keys=True)
