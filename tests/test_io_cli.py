import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from handover import io_formats, pipeline, synthetic
from handover.cli import main
from handover.cloud import ObjectCloud
from handover.errors import (
    MalformedHeader,
    ModelMismatch,
    SchemaError,
    UnsupportedEncoding,
    reading,
)
from handover.hand_model import decode_array, encode_array, save_hand_model
from handover.intent import TaskDescription, save_catalog, save_corpus
from handover.io_formats import export_scene, load_ply, save_ply, tessellate_sphere

from helpers import candidate_set, default_pose_library

ASCII_PLY = """ply
format ascii 1.0
comment three points
element vertex 3
property float x
property float y
property float z
end_header
0 0 0
1 0 0
0 1 0
"""


class TestPly:
    def test_ascii_three_points(self, tmp_path):
        path = tmp_path / "tri.ply"
        path.write_text(ASCII_PLY)
        cloud = load_ply(path)
        assert cloud.points.shape == (3, 3)
        assert cloud.normals is None
        assert cloud.name == "tri"

    def test_binary_round_trip_exact_float32(self, tmp_path, rng):
        points = rng.uniform(-1, 1, size=(50, 3))
        cloud = ObjectCloud("random", points)
        path = tmp_path / "random.ply"
        save_ply(cloud, path, binary=True)
        loaded = load_ply(path)
        assert np.array_equal(loaded.points, points.astype(np.float32).astype(float))

    def test_ascii_round_trip_with_normals(self, tmp_path):
        cloud = synthetic.cylinder_cloud(rings=3, per_ring=8)
        path = tmp_path / "cyl.ply"
        save_ply(cloud, path, binary=False)
        loaded = load_ply(path)
        assert loaded.normals is not None
        assert np.allclose(loaded.points, cloud.points, atol=1e-6)
        assert np.allclose(loaded.normals, cloud.normals, atol=1e-6)

    def test_big_endian_rejected(self, tmp_path):
        path = tmp_path / "big.ply"
        path.write_text(ASCII_PLY.replace("format ascii", "format binary_big_endian"))
        with pytest.raises(UnsupportedEncoding):
            load_ply(path)

    def test_missing_end_header_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text("ply\nformat ascii 1.0\nelement vertex 1\n")
        with pytest.raises(MalformedHeader):
            load_ply(path)

    def test_non_float_property_rejected(self, tmp_path):
        text = ASCII_PLY.replace("property float x", "property uchar x")
        path = tmp_path / "bad.ply"
        path.write_text(text)
        with pytest.raises(UnsupportedEncoding):
            load_ply(path)

    def test_wrong_value_count_rejected(self, tmp_path):
        path = tmp_path / "bad.ply"
        path.write_text(ASCII_PLY.replace("0 1 0\n", ""))
        with pytest.raises(MalformedHeader):
            load_ply(path)

    def test_face_element_rejected(self, tmp_path):
        text = ASCII_PLY.replace(
            "end_header", "element face 1\nproperty float dummy\nend_header"
        )
        path = tmp_path / "faces.ply"
        path.write_text(text)
        with pytest.raises(UnsupportedEncoding):
            load_ply(path)


def _hand_signed_volume(obj_path) -> float:
    """The volume the OBJ file's hand triangles enclose, by the divergence
    theorem: the sum of a . (b x c) / 6 over its triangles (a, b, c). It is
    positive when the faces wind counterclockwise seen from outside, and
    negative when they wind inward. The synthetic hand's mesh is open, so the
    sum is taken about a point inside it: the centroid of its vertices."""
    group, vertices, faces = None, [], []
    for line in Path(obj_path).read_text().splitlines():
        kind, *fields = line.split()
        if kind == "g":
            group = fields[0]
        elif kind == "v":
            vertices.append([float(x) for x in fields])
        elif kind == "f" and group == "hand":
            faces.append([int(i) - 1 for i in fields])
    faces = np.array(faces)
    points = np.array(vertices)[np.unique(faces)]
    tri = np.array(vertices)[faces] - points.mean(axis=0)
    return float(np.einsum("ij,ij->", tri[:, 0], np.cross(tri[:, 1], tri[:, 2]))) / 6.0


class TestObjExport:
    @pytest.mark.parametrize(
        "hand, model_flags",
        [("right", []), ("left", []), ("left", ["--hand-model", "hand.json"])],
        ids=["right", "left", "left-hand-model"],
    )
    def test_hand_mesh_winds_outward(self, workdir, monkeypatch, hand, model_flags):
        """`export` writes the hand with its record's model's triangles, so they
        wind outward on a left hand too, and on the mirror image of a
        --hand-model file's right hand."""
        monkeypatch.chdir(workdir)
        save_hand_model(synthetic.synthetic_hand_params("right"), "hand.json")
        Path("task.json").write_text(json.dumps({"object": "cylinder", "hand": hand}))
        assert main(["imagine", "--task", "task.json", "--cloud", "cylinder.ply",
                     "--sample-antipodal", *model_flags, "--out", "config.json"]) == 0
        assert main(["export", "--config", "config.json", *model_flags, "--out", "a.obj"]) == 0
        assert _hand_signed_volume("a.obj") > 1e-6

    def test_groups_and_determinism(self, cylinder_config, tmp_path):
        a, b = tmp_path / "a.obj", tmp_path / "b.obj"
        export_scene(cylinder_config, a)
        export_scene(cylinder_config, b)
        text = a.read_text()
        assert a.read_bytes() == b.read_bytes()
        groups = [l for l in text.splitlines() if l.startswith("g ")]
        assert groups == ["g object", "g hand", "g gripper"]
        assert "usemtl hand" in text
        # object cloud has normals: vn lines present, faces reference them
        assert any(l.startswith("vn ") for l in text.splitlines())

    def test_no_normals_means_no_vn_lines(self, cylinder_config, tmp_path):
        import dataclasses

        bare_cloud = ObjectCloud("bare", cylinder_config.cloud.points, None)
        config = dataclasses.replace(cylinder_config, cloud=bare_cloud)
        path = tmp_path / "scene.obj"
        export_scene(config, path)
        assert not any(l.startswith("vn ") for l in path.read_text().splitlines())

    def test_obj_indices_are_consistent(self, cylinder_config, tmp_path):
        path = tmp_path / "scene.obj"
        export_scene(cylinder_config, path)
        lines = path.read_text().splitlines()
        n_vertices = sum(1 for l in lines if l.startswith("v "))
        for line in lines:
            if line.startswith("f ") or line.startswith("p "):
                for token in line.split()[1:]:
                    index = int(token.split("/")[0])
                    assert 1 <= index <= n_vertices

    def test_sphere_tessellation_watertight_counts(self):
        verts, faces = tessellate_sphere((0, 0, 0), 0.01)
        assert verts.shape == (2 + 5 * 8, 3)
        assert np.allclose(np.linalg.norm(verts, axis=1), 0.01, atol=1e-12)
        # Euler characteristic of a sphere: V - E + F = 2 with E = 3F/2
        f = faces.shape[0]
        assert verts.shape[0] - (3 * f) / 2 + f == 2


@pytest.fixture()
def workdir(tmp_path, catalog):
    """Fixture files for CLI runs."""
    save_catalog(catalog, tmp_path / "catalog.json")
    cloud = synthetic.cylinder_cloud()
    io_formats.save_ply(cloud, tmp_path / "cylinder.ply")
    (tmp_path / "task.json").write_text(json.dumps({"object": "cylinder", "hand": "right"}))
    kp = synthetic.synthetic_rest_keypoints("right")
    (tmp_path / "kp.json").write_text(json.dumps(kp.tolist()))
    save_corpus(synthetic.sample_corpus(catalog), tmp_path / "corpus.json")
    return tmp_path


class TestCli:
    def test_infer_offline(self, workdir, capsys):
        rc = main(
            [
                "infer",
                "--text",
                "I need a knife",
                "--keypoints",
                str(workdir / "kp.json"),
                "--catalog",
                str(workdir / "catalog.json"),
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert json.loads(out) == {"object": "knife", "hand": "right"}

    def test_infer_without_hand_source_fails(self, workdir, capsys, monkeypatch):
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        rc = main(
            [
                "infer",
                "--text",
                "I need a knife",
                "--catalog",
                str(workdir / "catalog.json"),
            ]
        )
        assert rc == 1

    def test_infer_reaches_the_settings_file_endpoint(self, workdir, capsys, monkeypatch):
        """With no flag, no variable and no keypoints, the settings file's URL
        is asked: a closed port is a TransportError, exit 1."""
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        path = workdir / "settings.json"
        path.write_text(json.dumps({"endpoint": {"base_url": "http://127.0.0.1:9/v1"}}))
        rc = main(["--settings", str(path), "infer", "--text", "I need a knife",
                   "--catalog", str(workdir / "catalog.json")])
        err = capsys.readouterr().err
        assert rc == 1
        assert "TransportError" in err and "Traceback" not in err

    @pytest.mark.parametrize("source", ["environment", "settings-file"])
    def test_evaluate_finds_the_endpoint_as_infer_does(self, workdir, capsys, monkeypatch,
                                                        source):
        """With no --endpoint, evaluate asks the URL that the environment or
        the settings file names: a closed port is a TransportError, exit 1,
        and no report is written."""
        url = "http://127.0.0.1:9/v1"
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        argv = []
        if source == "environment":
            monkeypatch.setenv("HANDOVER_ENDPOINT_URL", url)
        else:
            path = workdir / "settings.json"
            path.write_text(json.dumps({"endpoint": {"base_url": url}}))
            argv = ["--settings", str(path)]
        report = workdir / "report.json"
        rc = main(argv + ["evaluate", "--corpus", str(workdir / "corpus.json"),
                          "--catalog", str(workdir / "catalog.json"), "--report", str(report)])
        err = capsys.readouterr().err
        assert rc == 1
        assert "TransportError" in err and "Traceback" not in err
        assert not report.exists()

    def test_imagine_match_export_flow(self, workdir, capsys):
        config_path = workdir / "config.json"
        rc = main(
            [
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--sample-antipodal",
                "--seed",
                "5",
                "--out",
                str(config_path),
            ]
        )
        assert rc == 0
        config = pipeline.load_configuration(config_path)
        assert config.validation.passed

        obs_path = workdir / "obs.json"
        obs_path.write_text(json.dumps(config.hand.joints.tolist()))
        target_path = workdir / "target.json"
        rc = main(
            [
                "match",
                "--config",
                str(config_path),
                "--observed-keypoints",
                str(obs_path),
                "--out",
                str(target_path),
            ]
        )
        assert rc == 0
        target = json.loads(target_path.read_text())
        assert target["schema"] == "end-effector-target/1"

        scene_path = workdir / "scene.obj"
        rc = main(["export", "--config", str(config_path), "--out", str(scene_path)])
        assert rc == 0
        assert scene_path.read_text().count("\ng ") >= 2

    def test_imagine_outputs_are_byte_deterministic(self, workdir, capsys):
        paths = []
        for run in range(2):
            out = workdir / f"config{run}.json"
            rc = main(
                [
                    "imagine",
                    "--task",
                    str(workdir / "task.json"),
                    "--cloud",
                    str(workdir / "cylinder.ply"),
                    "--sample-antipodal",
                    "--seed",
                    "5",
                    "--out",
                    str(out),
                ]
            )
            assert rc == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("shape", ["cylinder", "box"])
    def test_imagine_uses_the_library_defaults(self, tmp_path, capsys, shape):
        """A sampled --out file is, byte for byte, what the library writes with
        default providers and PipelineConfig.default()."""
        cloud_path = tmp_path / f"{shape}.ply"
        io_formats.save_ply(getattr(synthetic, f"{shape}_cloud")(), cloud_path)
        cloud = io_formats.load_ply(cloud_path)
        config = pipeline.PipelineConfig.default()
        task_path, out = tmp_path / "task.json", tmp_path / "out.json"
        for hand in ("right", "left"):
            task_path.write_text(json.dumps({"object": shape, "hand": hand}))
            for seed in (0, 3):
                argv = ["imagine", "--task", str(task_path), "--cloud", str(cloud_path),
                        "--sample-antipodal", "--seed", str(seed), "--out", str(out)]
                assert main(argv) == 0
                want = pipeline.imagine_configuration(
                    TaskDescription(shape, hand), cloud, pipeline.ProceduralPoseProvider(),
                    pipeline.AntipodalGraspProvider(seed=seed), config,
                )
                assert out.read_bytes() == want.to_json_text().encode("utf-8")

    def test_imagine_with_colliding_candidate_exits_1(self, workdir, capsys):
        # single candidate placed on the receiving hand itself
        cloud = io_formats.load_ply(workdir / "cylinder.ply")
        pose = synthetic.receiving_pose_for(cloud, "right")
        from handover.grasp import save_candidates
        from handover.hand_model import geometric_center, lbs_forward

        hand = lbs_forward(synthetic.synthetic_hand_params("right"), pose)
        colliding = pipeline.GraspCandidate(
            pipeline.RigidTransform(np.eye(3), geometric_center(hand.vertices)), 0.04
        )
        grasps_path = workdir / "bad_grasps.json"
        save_candidates(candidate_set([colliding]), grasps_path)
        rc = main(
            [
                "--json",
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--grasps",
                str(grasps_path),
                "--out",
                str(workdir / "never.json"),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 1
        error = json.loads(captured.err.strip().splitlines()[-1])
        assert error["error"] == "AllCandidatesCollide"

    def test_missing_file_exits_2(self, workdir, capsys):
        rc = main(
            [
                "imagine",
                "--task",
                str(workdir / "absent.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--sample-antipodal",
                "--out",
                str(workdir / "x.json"),
            ]
        )
        assert rc == 2

    def test_malformed_cloud_exits_2(self, workdir, capsys):
        bad = workdir / "bad.ply"
        bad.write_text("not a ply")
        rc = main(
            [
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(bad),
                "--sample-antipodal",
                "--out",
                str(workdir / "x.json"),
            ]
        )
        assert rc == 2

    def test_match_handedness_mismatch_exits_1(self, workdir, capsys):
        config_path = workdir / "config.json"
        main(
            [
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--sample-antipodal",
                "--out",
                str(config_path),
            ]
        )
        left_kp = synthetic.synthetic_rest_keypoints("left")
        obs = workdir / "left_obs.json"
        obs.write_text(json.dumps(left_kp.tolist()))
        rc = main(
            [
                "match",
                "--config",
                str(config_path),
                "--observed-keypoints",
                str(obs),
                "--out",
                str(workdir / "target.json"),
            ]
        )
        assert rc == 1

    def test_match_refuses_a_record_that_failed_validation(self, workdir, capsys):
        config_path = workdir / "config.json"
        argv = ["imagine", "--task", str(workdir / "task.json"), "--cloud",
                str(workdir / "cylinder.ply"), "--sample-antipodal", "--out", str(config_path)]
        assert main(argv) == 0
        # A record that fails its check honestly: its stored report is the one
        # the stricter margin gives, so it loads, and match refuses it.
        doc = json.loads(config_path.read_text())
        doc["validation"]["clearance"].update(passed=False, limit=0.1)
        config_path.write_text(json.dumps(doc))
        target_path = workdir / "target.json"
        capsys.readouterr()
        rc = main(["--json", "match", "--config", str(config_path),
                   "--observed-keypoints", str(workdir / "kp.json"), "--out", str(target_path)])
        assert rc == 1
        error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert error == {"error": "ValidationFailed",
                         "message": "configuration failed validation: clearance"}
        assert not target_path.exists()

    def test_evaluate_writes_json_and_csv(self, workdir, capsys, monkeypatch):
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        report_path = workdir / "report.json"
        rc = main(
            [
                "evaluate",
                "--corpus",
                str(workdir / "corpus.json"),
                "--catalog",
                str(workdir / "catalog.json"),
                "--report",
                str(report_path),
            ]
        )
        assert rc == 0
        report = json.loads(report_path.read_text())
        assert set(report["tiers"]) == {"clear", "foggy", "fuzzy"}
        csv_text = (workdir / "report.csv").read_text()
        assert csv_text.splitlines()[0] == "tier,items,passes,accuracy"
        assert csv_text.splitlines()[-1].startswith("average,")
        stdout = capsys.readouterr().out
        assert "average," in stdout

    @pytest.mark.parametrize("source", ["flag", "environment"])
    def test_intent_eval_script_exits_like_evaluate(self, tmp_path, capsys, monkeypatch, source):
        """scripts/run_intent_eval.py finds the endpoint by evaluate's rule, and
        one that does not answer ends it with exit 1, the error on stderr and
        no report."""
        path = Path(__file__).resolve().parents[1] / "scripts" / "run_intent_eval.py"
        spec = importlib.util.spec_from_file_location("run_intent_eval", path)
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        url = "http://127.0.0.1:9/v1"
        argv = ["run_intent_eval.py", "--report", str(tmp_path / "report.json")]
        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        if source == "flag":
            argv += ["--endpoint", url]
        else:
            monkeypatch.setenv("HANDOVER_ENDPOINT_URL", url)
        monkeypatch.setattr(sys, "argv", argv)
        assert script.main() == 1
        captured = capsys.readouterr()
        assert captured.out == f"resolver: endpoint {url}\n"
        assert captured.err.startswith("TransportError: ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "report.json").exists()

    def test_evaluate_against_mock_endpoint(self, workdir, capsys):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                self.rfile.read(int(self.headers.get("Content-Length", 0)))
                body = json.dumps(
                    {
                        "choices": [
                            {
                                "message": {
                                    "content": "Pass the knife to left hand of human"
                                }
                            }
                        ]
                    }
                ).encode()
                self.send_response(200)
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            report_path = workdir / "ep_report.json"
            rc = main(
                [
                    "evaluate",
                    "--corpus",
                    str(workdir / "corpus.json"),
                    "--catalog",
                    str(workdir / "catalog.json"),
                    "--endpoint",
                    f"http://127.0.0.1:{server.server_port}/v1",
                    "--report",
                    str(report_path),
                ]
            )
            assert rc == 0
            report = json.loads(report_path.read_text())
            # the mock always answers knife/right: only those items pass
            assert 0.0 < report["average_accuracy"] < 100.0
        finally:
            server.shutdown()

    def test_settings_file_supplies_defaults(self, workdir, capsys):
        settings = workdir / "settings.json"
        settings.write_text(json.dumps({"cosine_mode": "absolute", "distance_weight": 2.0}))
        out = workdir / "settings_config.json"
        rc = main(
            [
                "--settings",
                str(settings),
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--sample-antipodal",
                "--out",
                str(out),
            ]
        )
        assert rc == 0

    @pytest.mark.parametrize(
        "settings, extra",
        [
            ({"cosine_mode": "bogus"}, []),
            ({"distance_weight": "abc"}, []),
            ({"clearance_margin": "nan"}, []),
            ({}, ["--clearance", "-1"]),
        ],
        ids=["cosine_mode", "distance_weight", "clearance_nan", "clearance_flag"],
    )
    def test_bad_scoring_value_exits_2(self, workdir, capsys, settings, extra):
        path = workdir / "settings.json"
        path.write_text(json.dumps(settings))
        out = workdir / "bad_config.json"
        argv = ["--settings", str(path), "imagine", "--task", str(workdir / "task.json"),
                "--cloud", str(workdir / "cylinder.ply"), "--sample-antipodal"]
        rc = main(argv + extra + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "SchemaError" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
    @pytest.mark.parametrize(
        "extra", [["--count", "0"], ["--count", "-3"], ["--seed", "-1"]],
        ids=["count-0", "count-negative", "seed-negative"],
    )
    def test_bad_sampler_value_exits_2(self, workdir, capsys, extra, as_json):
        """A usage error, reported in one line (or one JSON object), not a traceback."""
        out = workdir / "bad_config.json"
        argv = ["imagine", "--task", str(workdir / "task.json"),
                "--cloud", str(workdir / "cylinder.ply"), "--sample-antipodal"]
        rc = main(["--json"] * as_json + argv + extra + ["--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "Traceback" not in err and len(err.splitlines()) == 1
        if as_json:
            assert json.loads(err)["error"] == "SchemaError"
        else:
            assert err.startswith("handover: SchemaError: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "endpoint",
        ["x", {"timeout_s": "abc"}, {"retries": [1]}, {"timeout_s": float("nan")}],
        ids=["string", "timeout", "retries", "timeout-nan"],
    )
    def test_bad_endpoint_setting_exits_2(self, workdir, capsys, endpoint):
        """Rejected while resolving settings, before any request is made."""
        path = workdir / "settings.json"
        path.write_text(json.dumps({"endpoint": endpoint}))
        rc = main(["--settings", str(path), "infer", "--text", "I need a knife",
                   "--endpoint", "http://127.0.0.1:9/v1",
                   "--catalog", str(workdir / "catalog.json")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "SchemaError" in err and "Traceback" not in err

    def test_endpoint_settings_precedence(self, workdir, monkeypatch):
        """Flags beat environment beats settings file."""
        from handover.intent import EndpointConfig

        monkeypatch.delenv("HANDOVER_ENDPOINT_URL", raising=False)
        monkeypatch.delenv("HANDOVER_ENDPOINT_MODEL", raising=False)
        settings = {"base_url": "http://from-settings", "model": "m-settings"}
        flags = {"base_url": None, "model": None, "timeout_s": None}
        assert EndpointConfig.from_env(settings, **flags).base_url == "http://from-settings"

        monkeypatch.setenv("HANDOVER_ENDPOINT_URL", "http://from-env")
        assert EndpointConfig.from_env(settings, **flags).base_url == "http://from-env"

        flags["base_url"] = "http://from-flag"
        config = EndpointConfig.from_env(settings, **flags)
        assert config.base_url == "http://from-flag"
        assert config.model == "m-settings"

        monkeypatch.setenv("HANDOVER_ENDPOINT_MODEL", "m-env")
        assert EndpointConfig.from_env(settings, **flags).model == "m-env"
        flags["model"] = "m-flag"
        assert EndpointConfig.from_env(settings, **flags).model == "m-flag"

    def test_timing_goes_to_stderr_not_stdout(self, workdir, capsys):
        out = workdir / "timed.json"
        rc = main(
            [
                "imagine",
                "--task",
                str(workdir / "task.json"),
                "--cloud",
                str(workdir / "cylinder.ply"),
                "--sample-antipodal",
                "--out",
                str(out),
            ]
        )
        captured = capsys.readouterr()
        assert rc == 0
        assert "imagine_time_s" in captured.err
        assert "imagine_time_s" not in captured.out

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_infer_non_finite_keypoints_exit_2(self, workdir, capsys, value):
        kp = synthetic.synthetic_rest_keypoints("right").tolist()
        kp[4][1] = value
        self._assert_infer_rejects_keypoints(workdir, capsys, json.dumps(kp))

    def test_imagine_writes_the_chosen_records_own_source(self, workdir):
        """A grasp file's records keep their own source tags: the chosen one,
        between two others in the file, is the tag written to --out."""
        from handover.grasp import SelectionConfig, antipodal_candidates, rank_candidates
        from handover.hand_model import lbs_forward

        cloud = io_formats.load_ply(workdir / "cylinder.ply")
        pose = synthetic.receiving_pose_for(cloud, "right")
        hand = lbs_forward(synthetic.synthetic_hand_params("right"), pose)
        sampled = antipodal_candidates(cloud, seed=5)
        best, second, third = [i for i, _ in rank_candidates(sampled, hand, SelectionConfig())][:3]
        records = [sampled[i].to_dict() for i in (second, best, third)]
        for k, record in enumerate(records):
            record["source"] = f"camera-{k}"
        grasps_path = workdir / "tagged_grasps.json"
        grasps_path.write_text(json.dumps(records))
        out = workdir / "tagged_config.json"
        argv = ["imagine", "--task", str(workdir / "task.json"), "--cloud",
                str(workdir / "cylinder.ply"), "--grasps", str(grasps_path), "--out", str(out)]
        assert main(argv) == 0
        written = json.loads(out.read_text())
        assert written["selection"]["selected_index"] == 1
        assert written["grasp"]["source"] == "camera-1"

    @pytest.mark.parametrize("content", ['"abc"', "[[1, 2], [3]]", '{"x": 1}'])
    def test_infer_non_array_keypoints_exit_2(self, workdir, capsys, content):
        self._assert_infer_rejects_keypoints(workdir, capsys, content)

    @staticmethod
    def _assert_infer_rejects_keypoints(workdir, capsys, content):
        path = workdir / "kp_bad.json"
        path.write_text(content)
        argv = ["infer", "--text", "I need a knife", "--keypoints", str(path)]
        rc = main(argv + ["--catalog", str(workdir / "catalog.json")])
        captured = capsys.readouterr()
        assert rc == 2
        assert "SchemaError" in captured.err
        assert captured.out == ""

@pytest.fixture(scope="module")
def json_inputs(tmp_path_factory, catalog, right_params, cylinder_config):
    """One valid file for every CLI flag that reads JSON."""
    from handover.grasp import save_candidates

    root = tmp_path_factory.mktemp("json_inputs")
    cloud = synthetic.cylinder_cloud()
    io_formats.save_ply(cloud, root / "cloud.ply")
    save_catalog(catalog, root / "catalog.json")
    save_corpus(synthetic.sample_corpus(catalog), root / "corpus.json")
    (root / "task.json").write_text(json.dumps({"object": "cylinder", "hand": "right"}))
    (root / "kp.json").write_text(json.dumps(cylinder_config.hand.joints.tolist()))
    (root / "poses.json").write_text(json.dumps(default_pose_library({"cylinder": cloud})))
    save_candidates(candidate_set([cylinder_config.grasp]), root / "grasps.json")
    save_hand_model(right_params, root / "hand.json")
    pipeline.save_configuration(cylinder_config, root / "config.json")
    return root


# Each command reads the flag's file after every other input has loaded; "@"
# marks the unreadable file and "@out" the output path.
_JSON_FLAG_COMMANDS = {
    "--settings": ["--settings", "@", "infer", "--text", "knife", "--keypoints", "kp.json",
                   "--catalog", "catalog.json"],
    "--task": ["imagine", "--task", "@", "--cloud", "cloud.ply", "--sample-antipodal",
               "--out", "@out"],
    "--poses": ["imagine", "--task", "task.json", "--cloud", "cloud.ply", "--poses", "@",
                "--sample-antipodal", "--out", "@out"],
    "--grasps": ["imagine", "--task", "task.json", "--cloud", "cloud.ply", "--grasps", "@",
                 "--out", "@out"],
    "--hand-model": ["imagine", "--task", "task.json", "--cloud", "cloud.ply",
                     "--grasps", "grasps.json", "--hand-model", "@", "--out", "@out"],
    "--config": ["match", "--config", "@", "--observed-keypoints", "kp.json", "--out", "@out"],
    "--observed-keypoints": ["match", "--config", "config.json", "--observed-keypoints", "@",
                             "--out", "@out"],
    "--keypoints": ["infer", "--text", "knife", "--keypoints", "@", "--catalog", "catalog.json"],
    "--catalog": ["infer", "--text", "knife", "--keypoints", "kp.json", "--catalog", "@"],
    "--corpus": ["evaluate", "--corpus", "@", "--catalog", "catalog.json", "--report", "@out"],
}


@pytest.mark.parametrize(
    "exc", [AttributeError("a"), IndexError("i"), KeyError("k"), TypeError("t"),
            ValueError("v"), ModelMismatch("m"), OverflowError("o")],
    ids=lambda exc: type(exc).__name__,
)
def test_reading_turns_record_errors_into_schema_error(exc):
    with pytest.raises(SchemaError, match="^bad thing: ") as info:
        with reading("thing"):
            raise exc
    assert info.value.__cause__ is exc


def test_reading_lets_format_errors_through():
    inner = MalformedHeader("inner")
    with pytest.raises(MalformedHeader) as info:
        with reading("thing"):
            raise inner
    assert info.value is inner
    with pytest.raises(ZeroDivisionError):
        with reading("thing"):
            raise ZeroDivisionError


# The PLY flag, for the bad-value cases below; its reader is not JSON.
_FLAG_COMMANDS = {
    **_JSON_FLAG_COMMANDS,
    "--cloud": ["imagine", "--task", "task.json", "--cloud", "@", "--sample-antipodal",
                "--out", "@out"],
}


def _assert_bad_input_exits_2(json_inputs, tmp_path, capsys, flag, content: bytes):
    bad = tmp_path / "bad_input"
    bad.write_bytes(content)
    paths = {"@": bad, "@out": tmp_path / "out.json"}
    argv = []
    for word in _FLAG_COMMANDS[flag]:
        if word in paths:
            word = str(paths[word])
        elif (json_inputs / word).exists():
            word = str(json_inputs / word)
        argv.append(word)
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert "SchemaError" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("flag", sorted(_JSON_FLAG_COMMANDS))
def test_non_utf8_json_input_exits_2(json_inputs, tmp_path, capsys, flag):
    _assert_bad_input_exits_2(json_inputs, tmp_path, capsys, flag, b"\xff\xfe[1, 2, 3]")


def _edited(name, keys, value):
    """The valid ``name`` input with the entry at ``keys`` set to ``value``, or to
    ``value(entry)`` when ``value`` is callable."""

    def build(root):
        doc = json.loads((root / name).read_text())
        node = doc
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value(node[keys[-1]]) if callable(value) else value
        return json.dumps(doc).encode()  # writes NaN and Infinity literals

    return build


def _overflowing(name, keys, value="1e999"):
    """Like _edited, with every string "1e999" written as the bare literal 1e999:
    a number beyond the float range, which Python's parser reads as inf."""
    build = _edited(name, keys, value)
    return lambda root: build(root).replace(b'"1e999"', b"1e999")


def _one_nan(shape, dtype):
    """Puts a NaN into a base64 array, where no JSON literal check can see it."""
    return _one_changed(shape, dtype, lambda v: np.nan)


def _one_changed(shape, dtype, change):
    """Sets one entry of a base64 array to ``change(entry)``."""

    def build(encoded):
        values = decode_array(encoded, shape, "values", dtype).copy()
        values.flat[4] = change(values.flat[4])
        return encode_array(values, dtype)

    return build


_NAN_NORMAL_PLY = """ply
format ascii 1.0
element vertex 3
property float x
property float y
property float z
property float nx
property float ny
property float nz
end_header
0 0 0 0 0 1
1 0 0 nan 0 0
0 1 0 0 0 1
"""
_NAN, _INF = float("nan"), float("inf")


_POSE = ("cylinder", "right", "pose")


def _scaled_rotation(matrix):
    """A flat 4 x 4 grasp matrix with its rotation block scaled by 2."""
    return [2.0 * v if k < 12 and k % 4 < 3 else v for k, v in enumerate(matrix)]


def _reflected_rotation(matrix):
    """A flat 4 x 4 grasp matrix with its rotation's third column negated."""
    return [-v if k in (2, 6, 10) else v for k, v in enumerate(matrix)]


@pytest.mark.parametrize(
    "flag, build",
    [
        pytest.param("--poses", _edited("poses.json", ("cylinder",), "x"),
                     id="pose-entry-not-object"),
        pytest.param("--poses", _edited("poses.json", _POSE, [[1, 0, 0, 0, 1, 0]] * 3),
                     id="pose-wrong-shape"),
        pytest.param("--poses", _edited("poses.json", (*_POSE, 2, 1), _NAN), id="pose-nan"),
        pytest.param("--grasps", _edited("grasps.json", (0, "matrix", 13), _NAN),
                     id="grasp-nan-bottom-row"),
        pytest.param("--grasps", _edited("grasps.json", (0, "matrix", 5), _NAN),
                     id="grasp-nan-rotation"),
        pytest.param("--catalog", _edited("catalog.json", (0, "name"), 5),
                     id="catalog-name-not-string"),
        pytest.param("--catalog", _edited("catalog.json", (0, "synonyms"), [5]),
                     id="catalog-synonym-not-string"),
        pytest.param("--corpus", _edited("corpus.json", (0, "text"), 5),
                     id="corpus-text-not-string"),
        pytest.param("--config", _edited("config.json", ("hand_frame", "center", 1), _NAN),
                     id="record-center-nan"),
        pytest.param("--config", _edited("config.json", ("grasp", "matrix", 3), _INF),
                     id="record-translation-inf"),
        pytest.param("--config", _edited("config.json", ("selection", "score"), _NAN),
                     id="record-score-nan"),
        pytest.param("--config", _edited("config.json", ("hand", "handedness"), "x"),
                     id="record-handedness"),
        # A record's task, receiving pose and posed hand name one handedness.
        pytest.param("--config", _edited("config.json", ("task", "hand"), "left"),
                     id="record-task-hand-flipped"),
        pytest.param("--config", _edited("config.json", ("hand_pose", "handedness"), "left"),
                     id="record-pose-hand-flipped"),
        pytest.param("--config", _overflowing("config.json", ("selection", "score")),
                     id="record-score-1e999"),
        pytest.param("--config", _overflowing("config.json", ("selection", "clearance_m")),
                     id="record-clearance-1e999"),
        pytest.param("--config", _overflowing("config.json", ("selection", "selected_index")),
                     id="record-selected-index-1e999"),
        pytest.param("--config",
                     _overflowing("config.json", ("selection", "fallbacks"),
                                  [{"index": 0, "min_distance_m": "1e999"}]),
                     id="record-fallback-1e999"),
        pytest.param("--config", _edited("config.json", ("selection", "selected_index"), 2.7),
                     id="record-selected-index-fraction"),
        pytest.param("--config",
                     _edited("config.json", ("selection", "fallbacks"),
                             [{"index": "x", "min_distance_m": 0.001}]),
                     id="record-fallback-index-string"),
        pytest.param("--config",
                     _edited("config.json", ("selection", "fallbacks"),
                             [{"index": 0.5, "min_distance_m": 0.001}]),
                     id="record-fallback-index-fraction"),
        pytest.param("--config",
                     _edited("config.json", ("selection", "fallbacks"),
                             [{"min_distance_m": 0.001}]),
                     id="record-fallback-index-missing"),
        pytest.param("--config",
                     _overflowing("config.json", ("validation", "clearance", "measured")),
                     id="record-measured-1e999"),
        pytest.param("--config",
                     _overflowing("config.json", ("validation", "jaw_width", "limit")),
                     id="record-limit-1e999"),
        pytest.param("--config", _overflowing("config.json", ("grasp", "width_m")),
                     id="record-width-1e999"),
        pytest.param("--grasps", _overflowing("grasps.json", (0, "width_m")),
                     id="grasp-width-1e999"),
        pytest.param("--config",
                     _edited("config.json", ("cloud", "normals"), _one_nan((None, 3), "<f8")),
                     id="record-normals-nan"),
        pytest.param("--hand-model",
                     _edited("hand.json", ("template_vertices",), _one_nan((778, 3), "<f4")),
                     id="hand-model-nan"),
        pytest.param("--cloud", lambda root: _NAN_NORMAL_PLY.encode(), id="ply-normal-nan"),
        pytest.param("--cloud", lambda root: _NAN_NORMAL_PLY.replace("nan", "inf").encode(),
                     id="ply-normal-inf"),
        pytest.param("--task", _edited("task.json", ("object",), 5),
                     id="task-object-not-string"),
        pytest.param("--config", _edited("config.json", ("selection", "selected_index"), "12"),
                     id="record-selected-index-string"),
        pytest.param("--config", _edited("config.json", ("selection", "score"), "-0.38"),
                     id="record-score-string"),
        pytest.param("--config", _edited("config.json", ("selection", "score"), True),
                     id="record-score-bool"),
        pytest.param("--config", _edited("config.json", ("hand_frame", "center"), ["1", "2", "3"]),
                     id="record-center-strings"),
        pytest.param("--config", _edited("config.json", ("grasp", "width_m"), "0.04"),
                     id="record-width-string"),
        pytest.param("--grasps", _edited("grasps.json", (0, "width_m"), "0.04"),
                     id="grasp-width-string"),
        pytest.param("--grasps", _edited("grasps.json", (0, "width_m"), True),
                     id="grasp-width-bool"),
        pytest.param("--grasps", _edited("grasps.json", (0, "matrix", 3), str),
                     id="grasp-matrix-string"),
        # A boolean beside numbers, where it reads as 1 and would pass every
        # other check: the last matrix entry and a pose's 6D row entry are 1 too.
        pytest.param("--grasps", _edited("grasps.json", (0, "matrix", 15), True),
                     id="grasp-matrix-bool"),
        pytest.param("--config", _edited("config.json", ("grasp", "matrix", 15), True),
                     id="record-matrix-bool"),
        pytest.param("--config", _edited("config.json", ("hand_frame", "center", 1), True),
                     id="record-center-bool"),
        pytest.param("--poses", _edited("poses.json", (*_POSE, 2, 1), True), id="pose-bool"),
        # A record's grasp meets the rule every candidate meets before it is chosen.
        pytest.param("--config", _edited("config.json", ("grasp", "matrix"), _scaled_rotation),
                     id="record-grasp-scaled"),
        pytest.param("--config", _edited("config.json", ("grasp", "matrix"), _reflected_rotation),
                     id="record-grasp-reflected"),
        pytest.param("--config", _edited("config.json", ("grasp", "width_m"), 5.0),
                     id="record-grasp-overwide"),
        # A record's validation is read by the rule that wrote it: the four
        # checks validate_configuration writes, each "passed" a JSON boolean.
        pytest.param("--config",
                     _edited("config.json", ("validation", "clearance", "passed"), "false"),
                     id="record-passed-string"),
        pytest.param("--config", _edited("config.json", ("validation",), {}),
                     id="record-validation-empty"),
        pytest.param("--config",
                     _edited("config.json", ("validation",),
                             lambda checks: {k: v for k, v in checks.items() if k != "hand_frame"}),
                     id="record-check-missing"),
        # A record's hand frame, clearance and checks are derived from its
        # inputs on load; a stored one that differs is refused.
        pytest.param("--config",
                     _edited("config.json", ("validation", "clearance"),
                             {"passed": True, "measured": -0.02, "limit": 0.005}),
                     id="record-clearance-lie"),
        pytest.param("--config", _edited("config.json", ("validation", "grasp_rotation", "limit"),
                                         1.0),
                     id="record-rotation-limit-1"),
        pytest.param("--config", _edited("config.json", ("hand_frame", "center", 0),
                                         lambda x: x + 0.01),
                     id="record-center-edited"),
        pytest.param("--config", _edited("config.json", ("hand_frame", "direction"),
                                         lambda d: [-v for v in d]),
                     id="record-direction-edited"),
        pytest.param("--config", _edited("config.json", ("selection", "clearance_m"),
                                         lambda x: x + 0.01),
                     id="record-selection-clearance-edited"),
        pytest.param("--config", _edited("config.json", ("validation", "clearance", "limit"), 0),
                     id="record-clearance-limit-0"),
        # The hand is skinned again on load, from hand_pose and the model the
        # digest names, and its joints are held to the stored ones.
        pytest.param("--config", _edited("config.json", ("hand_pose", "translation", 0),
                                         lambda x: x + 1e-6),
                     id="record-pose-translation-edited"),
        pytest.param("--config", _edited("config.json", ("hand_pose", "pose", 5, 2),
                                         lambda x: x + 1e-3),
                     id="record-pose-block-edited"),
        pytest.param("--config", _edited("config.json", ("hand_pose", "pose", 5),
                                         [0.0, 0.0, 0.0, 0.0, 1.0, 0.0]),
                     id="record-pose-block-degenerate"),
        pytest.param("--config", _edited("config.json", ("hand", "model_sha256"), "0" * 64),
                     id="record-model-digest-edited"),
        pytest.param("--config", _edited("config.json", ("hand",),
                                         lambda hand: {k: v for k, v in hand.items()
                                                       if k != "model_sha256"}),
                     id="record-model-digest-missing"),
        pytest.param("--config",
                     _edited("config.json", ("hand", "joints"),
                             _one_changed((21, 3), "<f8", lambda x: x + 1e-8)),
                     id="record-joints-edited"),
        pytest.param("--config", _edited("config.json", ("validation", "clearance", "limit"), -1),
                     id="record-clearance-limit-negative"),
        pytest.param("--config",
                     _edited("config.json", ("validation", "clearance", "limit"), "0.005"),
                     id="record-clearance-limit-string"),
    ],
)
def test_bad_value_exits_2(json_inputs, tmp_path, capsys, flag, build):
    _assert_bad_input_exits_2(json_inputs, tmp_path, capsys, flag, build(json_inputs))
