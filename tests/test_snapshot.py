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

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = ROOT / "tests" / "golden" / "snapshot.sha256"


def _manifest() -> tuple[str, dict]:
    """The numpy version the manifest names, and its {file name: sha256}."""
    header, *lines = MANIFEST.read_text(encoding="utf-8").splitlines()
    digests = {name: digest for digest, name in (line.split("  ", 1) for line in lines)}
    return header.removeprefix("# numpy "), digests


def test_snapshot_matches_the_manifest(tmp_path, monkeypatch):
    numpy_version, want = _manifest()
    if np.__version__ != numpy_version:
        pytest.skip(f"the manifest was written with numpy {numpy_version}, whose "
                    f"rounding this numpy {np.__version__} need not share")
    spec = importlib.util.spec_from_file_location(
        "snapshot_outputs", ROOT / "scripts" / "snapshot_outputs.py"
    )
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = tmp_path / "snap"
    monkeypatch.chdir(tmp_path)  # restores the directory the script leaves
    monkeypatch.setattr(sys, "argv", ["snapshot_outputs.py", str(out)])
    script.main()

    got = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()}
    differ = sorted(name for name in set(want) | set(got) if got.get(name) != want.get(name))
    assert not differ, f"{len(differ)} files differ from the manifest: {', '.join(differ)}"
