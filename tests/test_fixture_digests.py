"""The float64 bits of the procedural fixtures, held to constants.

The snapshot manifest sees the fixture clouds only through float32 PLY files,
``shape_dirs`` only through the float32 ``hand_model.json`` and the gripper
spheres only as ``.9g`` OBJ text, so a change in the last bit of any of them
would pass it. Each array here is digested as its dtype, shape and bytes. A
change that alters a fixture on purpose prints the new digests with:

    PYTHONPATH=src:tests python3 -c 'import test_fixture_digests as t; t.print_digests()'
"""

import hashlib

import numpy as np
import pytest

from handover.grasp import GRIPPER
from handover.io_formats import tessellate_sphere
from handover.synthetic import box_cloud, cylinder_cloud, synthetic_hand_params

from test_snapshot import _manifest

HAND_ARRAYS = (
    "template_vertices", "skinning_weights", "joint_regressor", "parents", "shape_dirs", "faces"
)


def _fixture_arrays() -> dict:
    """{name: array} of every fixture array the digests cover."""
    arrays = {}
    for hand in ("right", "left"):
        params = synthetic_hand_params(hand)
        arrays.update({f"hand_{hand}.{name}": getattr(params, name) for name in HAND_ARRAYS})
    clouds = {
        "cylinder": cylinder_cloud(),
        "cylinder_24x40": cylinder_cloud(rings=24, per_ring=40),
        "box": box_cloud(),
    }
    for label, cloud in clouds.items():
        arrays[f"{label}.points"] = cloud.points
        arrays[f"{label}.normals"] = cloud.normals
    # The gripper's proxy spheres as export draws them at an identity grasp.
    for k, (center, radius) in enumerate(zip(GRIPPER.sphere_centers, GRIPPER.sphere_radii)):
        verts, faces = tessellate_sphere(center, float(radius))
        arrays[f"sphere{k}.vertices"] = verts
        arrays[f"sphere{k}.faces"] = faces
    return arrays


def _digest(arr: np.ndarray) -> str:
    head = f"{arr.dtype.str} {arr.shape}".encode("ascii")
    return hashlib.sha256(head + np.ascontiguousarray(arr).tobytes()).hexdigest()


def print_digests() -> None:
    for name, arr in _fixture_arrays().items():
        print(f'    "{name}": "{_digest(arr)}",')


DIGESTS = {
    "hand_right.template_vertices": "a7ecbe2f13b9b1b9d21b6f1f49f3a0631fd422426b77cfa1930495d40f673b8a",
    "hand_right.skinning_weights": "673710ff5b46048e29b5f1505e183c4a594d6addf6cd84509a35bcdf967a8a59",
    "hand_right.joint_regressor": "3f0f2d56d024d0cd194e68ac9de813c566d67ff9113189df9603b0a955f30148",
    "hand_right.parents": "3873abc577bf07e07c59d4ed32b14ca043382426d2eafcb06dac857dae7c074c",
    "hand_right.shape_dirs": "77556e5a1b1e8c2712e1540fa5bc5414943c406f9887c3ec9ed57c9dac5b19ce",
    "hand_right.faces": "daff2f712db119ea1858cb15808b3a7765c19c93ccc1bf9efc050d000ac9004f",
    "hand_left.template_vertices": "89927b8225519b7a2a0bc9973231684c449ad66c155912f050256419a2f6bc42",
    "hand_left.skinning_weights": "673710ff5b46048e29b5f1505e183c4a594d6addf6cd84509a35bcdf967a8a59",
    "hand_left.joint_regressor": "3f0f2d56d024d0cd194e68ac9de813c566d67ff9113189df9603b0a955f30148",
    "hand_left.parents": "3873abc577bf07e07c59d4ed32b14ca043382426d2eafcb06dac857dae7c074c",
    "hand_left.shape_dirs": "71840a8eb28d04161e0f1993185a862416228f4226c831028c586d5728ca65bc",
    "hand_left.faces": "25564dcc1615a3dbe45c62727507fcc0a2c46b39086ef7b862756359131f8ed1",
    "cylinder.points": "c83658109fe3eed41b8de37cec1dd04a15c39e5e43d0df1517b61d03e37837aa",
    "cylinder.normals": "aada8316ee785d5bc809073c33f0f6842d14ed962fdfb4e38a135f32c1eeeedb",
    "cylinder_24x40.points": "420295476853766d3f4c56d7146c354e619053966662b37e17ef4afb143d5d57",
    "cylinder_24x40.normals": "9ba91e50f4778ae1544df15ea580ab1938c32faa2b0d8040a1b7f1c161d4804c",
    "box.points": "dec3754414206e31adc89ee3090ef5a805c3e18b0b326eb5dd3d337253693b69",
    "box.normals": "633169bc906a87b15fcbe2b1f9918c265f710209b95bb7b29c076b7365b461a1",
    "sphere0.vertices": "e3aa665f9c81d0aab8249d48a66e06c58f2674f0d7b302172d3d182510aad367",
    "sphere0.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
    "sphere1.vertices": "5b57d951a2a6f20f63525dfa0268423b27b1bb046fb393043c33ec67e86c7cc4",
    "sphere1.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
    "sphere2.vertices": "ca1d71f435cd64b061c2e208981830f19a9ccaa74fb030935861f5485cc2d716",
    "sphere2.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
    "sphere3.vertices": "75c11ec1837fc64aad84602c5fceaf4f141260591395539b8a463935e3bb0f87",
    "sphere3.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
    "sphere4.vertices": "5165f8fca93b8d089ea54dd21afa30133ee3dd1b120c4c34bb1af8945aaa63dd",
    "sphere4.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
    "sphere5.vertices": "38b9d6c4de30c1c4fa39e38c7c41f0c16eda4bde15dd28c105656022b02451b5",
    "sphere5.faces": "4b73c74e3b3a50e218772e80de8760af14cc4904c970911091750ec407e51ffb",
}


def test_fixture_arrays_keep_their_bits():
    numpy_version, _ = _manifest()
    if np.__version__ != numpy_version:
        pytest.skip(f"the digests were taken with numpy {numpy_version}, whose "
                    f"rounding this numpy {np.__version__} need not share")
    got = {name: _digest(arr) for name, arr in _fixture_arrays().items()}
    assert set(got) == set(DIGESTS)
    differ = sorted(name for name in DIGESTS if got[name] != DIGESTS[name])
    assert not differ, f"{len(differ)} fixture arrays changed bits: {', '.join(differ)}"
