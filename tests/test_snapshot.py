"""The CLI's deterministic outputs, held to a committed manifest.

``scripts/snapshot_outputs.py`` writes the inputs, outputs and transcript of
a fixed set of CLI runs; ``tests/golden/snapshot.sha256`` holds the sha256 of
each file, after a first line naming the numpy version it was written with.
A change that alters outputs on purpose regenerates it, and the manifest's
diff then names the files that changed:

    PYTHONPATH=src python3 scripts/snapshot_outputs.py snap
    (python3 -c 'import numpy; print("# numpy", numpy.__version__)';
     cd snap && export LC_ALL=C && sha256sum *) > tests/golden/snapshot.sha256
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from handover.cli import main

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "snapshot.sha256"


def _manifest() -> tuple[str, dict]:
    """The numpy version the manifest names, and its {file name: sha256}."""
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    digests = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    return header.removeprefix("# numpy "), digests


def _script():
    spec = importlib.util.spec_from_file_location(
        "snapshot_outputs", ROOT / "scripts" / "snapshot_outputs.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_snapshot_matches_the_manifest(tmp_path, monkeypatch):
    numpy_version, want = _manifest()
    if np.__version__ != numpy_version:
        pytest.skip(f"the manifest was written with numpy {numpy_version}, whose "
                    f"rounding this numpy {np.__version__} need not share")
    script = _script()
    out = tmp_path / "snap"
    monkeypatch.chdir(tmp_path)  # restores the directory the script leaves
    monkeypatch.setattr(sys, "argv", ["snapshot_outputs.py", str(out)])
    script.main()

    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    differ = sorted(name for name in set(want) | set(got) if got.get(name) != want.get(name))
    assert not differ, f"{len(differ)} files differ from the manifest: {', '.join(differ)}"


@pytest.mark.parametrize("hand", ["right", "left"])
def test_a_record_of_a_model_file_needs_that_file(tmp_path, monkeypatch, capsys, hand):
    """The manifest's model_<hand> record names the digest of the hand-model
    file it was imagined with: match without --hand-model exits 2 and names
    the flag, and with it writes the manifest's target."""
    numpy_version, want = _manifest()
    script = _script()
    monkeypatch.chdir(tmp_path)
    script.write_inputs()
    with open("transcript.txt", "w", encoding="utf-8") as log:
        script.imagine_and_match(log, f"model_{hand}", "cylinder", hand,
                                 ["--sample-antipodal", "--hand-model", "hand_model.json"],
                                 "hand_model.json")
    capsys.readouterr()
    argv = ["match", "--config", f"model_{hand}.json",
            "--observed-keypoints", f"model_{hand}_observed.json"]
    assert main(argv + ["--out", "bare.json"]) == 2
    err = capsys.readouterr().err
    assert "SchemaError" in err and "--hand-model" in err
    assert not Path("bare.json").exists()

    assert main(argv + ["--hand-model", "hand_model.json", "--out", "target.json"]) == 0
    target = Path("target.json").read_bytes()
    assert target == Path(f"model_{hand}_target.json").read_bytes()
    if np.__version__ == numpy_version:
        assert hashlib.sha256(target).hexdigest() == want[f"model_{hand}_target.json"]
