"""Exception types shared across the handover toolkit.

Two broad families matter to callers: ``InputFormatError`` covers malformed
files and schema violations (CLI exit code 2), everything else derived from
``HandoverError`` is a semantic/validation failure (CLI exit code 1).
The JSON-file loader, the record guard and the settings-precedence rule live
here too, so that every module that reads a file or a setting treats it the
same way.
"""

import json
import os
from contextlib import contextmanager


class HandoverError(Exception):
    """Base class for all toolkit errors."""


class InputFormatError(HandoverError):
    """A file or payload does not conform to its declared format."""


# --- geometry ---------------------------------------------------------------

class DegenerateDirection(HandoverError):
    """A direction vector has (near-)zero length."""


class ParallelAxes(HandoverError):
    """Two axes that must span a plane are (near-)parallel."""


class NonUnitQuaternion(HandoverError):
    """Quaternion norm deviates from 1 beyond tolerance."""


# --- hand model --------------------------------------------------------------

class InvalidPoseBlock(HandoverError):
    """A per-joint 6D rotation block cannot be orthonormalized."""


class ModelMismatch(HandoverError):
    """Hand model and pose (or file contents) disagree on dimensions."""


class DegenerateNormal(HandoverError):
    """Palm keypoints are collinear; no normal can be derived."""


class AmbiguousHandedness(HandoverError):
    """Keypoint triple product too close to zero to classify the hand."""


# --- grasp selection ---------------------------------------------------------

class EmptyCandidateSet(HandoverError):
    """rank_candidates called with no candidates."""


class NoCandidatesFound(HandoverError):
    """Antipodal sampling produced no valid pair."""


class InvalidCandidate(HandoverError):
    """Grasp candidate violates a hard constraint (e.g. jaw width)."""


# --- intent ------------------------------------------------------------------

class TemplateMismatch(HandoverError):
    """Model output does not follow the task-description template."""


class UnknownObject(HandoverError):
    """Parsed object name is not in the tool catalog."""


class NoObjectResolved(HandoverError):
    """Rule-based resolver found no catalog match in the text."""


class EmptyCorpus(HandoverError):
    """Evaluation corpus contains no items."""


class EndpointError(HandoverError):
    """Base class for remote-endpoint failures."""


class TransportError(EndpointError):
    """Connection-level failure (unreachable host, bad payload shape)."""


class EndpointTimeout(EndpointError):
    """Endpoint did not answer within the configured timeout."""


class NonSuccessStatus(EndpointError):
    """Endpoint answered with a non-2xx HTTP status."""

    def __init__(self, status: int, body: str = ""):
        super().__init__(f"endpoint returned HTTP {status}")
        self.status = status
        self.body = body


# --- pipeline ----------------------------------------------------------------

class ProviderEmpty(HandoverError):
    """A pose/grasp provider returned nothing for the request."""


class AllCandidatesCollide(HandoverError):
    """Every grasp candidate failed the gripper-hand clearance check."""

    def __init__(self, min_distances):
        self.min_distances = list(min_distances)
        super().__init__(
            "all %d candidates failed clearance (min distances: %s)"
            % (len(self.min_distances), self.min_distances)
        )


class HandednessMismatch(HandoverError):
    """Observed hand type differs from the planned receiving hand."""


class DegenerateObservation(HandoverError):
    """Observed keypoints are unusable (non-finite or collapsed)."""


# --- file formats ------------------------------------------------------------

class MalformedHeader(InputFormatError):
    """PLY header cannot be parsed."""


class UnsupportedEncoding(InputFormatError):
    """PLY encoding other than ascii / binary_little_endian."""


class SchemaError(InputFormatError):
    """JSON container violates its declared schema."""


def _non_finite(literal: str):
    raise ValueError(f"{literal} is not a finite number")


def load_json_file(path):
    """Parse a UTF-8 JSON file; bytes that are not UTF-8 JSON raise SchemaError.

    So do the ``NaN``, ``Infinity`` and ``-Infinity`` literals, which strict
    JSON does not have but Python's parser accepts.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_constant=_non_finite)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError and _non_finite
        raise SchemaError(f"{path}: not valid UTF-8 JSON: {exc}") from exc


def pick_setting(override, settings: dict, key: str, env: str | None = None, default=None):
    """First given of override > environment variable ``env`` > settings[key] > default.

    None and the empty string count as not given. Callers convert the value
    and map a bad one to ``SchemaError``.
    """
    for value in (override, env and os.environ.get(env), settings.get(key)):
        if value is not None and value != "":
            return value
    return default


@contextmanager
def reading(what: str):
    """Raise ``SchemaError("bad <what>: ...")`` for what a malformed record raises.

    An ``InputFormatError`` from inside, such as a nested reader's own
    ``SchemaError``, passes through unchanged.
    """
    try:
        yield
    except (
        AttributeError, IndexError, KeyError, OverflowError, TypeError, ValueError, ModelMismatch
    ) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc
