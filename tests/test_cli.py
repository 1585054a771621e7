import io
import json
import contextlib
import subprocess
import sys

import pytest

from tubecalc.cli import main


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_err(argv):
    """Exit code and standard error of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


class TestExtHom:
    def test_ext_aleph0(self):
        assert run(["ext", "--rank", "2", "M[0,inf]", "M[-inf,0]"]) == (0, "aleph0\n")

    def test_ext_finite(self):
        assert run(["ext", "--rank", "2", "M[0,2]", "M[1,3]"]) == (0, "1\n")

    def test_hom_prufer_source(self):
        assert run(["hom", "--rank", "2", "M[0,inf]", "M[0,2]"]) == (0, "0\n")

    def test_parse_error_exits_1(self):
        assert run(["ext", "--rank", "2", "M[zero,2]", "M[1,3]"])[0] == 1
        assert run(["ext", "--rank", "2", "M[0,1]", "M[1,3]"])[0] == 1

    def test_unsupported_hom_exits_2(self):
        assert run(["hom", "--rank", "2", "M[0,inf]", "M[1,inf]"])[0] == 2


class TestPairs:
    @pytest.mark.parametrize(
        "n,count", [(1, 2), (2, 6), (3, 20), (8, 12870)]
    )
    def test_count(self, n, count):
        assert run(["pairs", "count", "--rank", str(n)]) == (0, f"{count}\n")

    def test_enumerate_deterministic(self):
        a = run(["pairs", "enumerate", "--rank", "3"])
        b = run(["pairs", "enumerate", "--rank", "3"])
        assert a == b and a[0] == 0
        assert len(a[1].splitlines()) == 20

    def test_enumerate_json_parses(self):
        code, out = run(["pairs", "enumerate", "--rank", "2", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema"] == 1 and len(doc["pairs"]) == 6


class TestRigid:
    def test_enumerate(self):
        code, out = run(["rigid", "enumerate", "--rank", "1"])
        assert code == 0
        assert out.splitlines() == ["prufer: M[0,inf]", "adic: M[-inf,0]"]

    def test_missing_rank_is_usage_error(self):
        assert run(["rigid", "enumerate"])[0] == 1

    def test_round_trip_through_pair_file(self, tmp_path):
        code, out = run(
            ["pair-of-rigid", "--rank", "3", "--summands",
             "M[0,inf],M[2,inf],M[0,2]", "--json"]
        )
        assert code == 0
        path = tmp_path / "pair.json"
        path.write_text(out)
        code2, out2 = run(["rigid", "of-pair", "--pair", str(path)])
        assert code2 == 0
        assert out2 == "prufer: M[0,2] M[0,inf] M[2,inf]\n"

    def test_invalid_pair_file_exits_2(self, tmp_path):
        code, out = run(
            ["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[0,2]", "--json"]
        )
        doc = json.loads(out)
        doc["free"]["rays"] = []
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert run(["rigid", "of-pair", "--pair", str(path)])[0] == 2

    def test_unreadable_pair_file_exits_1(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{")
        assert run(["rigid", "of-pair", "--pair", str(path)])[0] == 1


class TestMalformedPairDocuments:
    """Malformed pair documents exit 2 with a one-line error naming the key."""

    @staticmethod
    def doc(**fields):
        doc = {"schema": 1, "rank": 2, "kind": "ray",
               "torsion": {"finite": [], "corays": []}, "free": {"finite": [], "rays": [0]}}
        return {**doc, **fields}

    @staticmethod
    def run_doc(tmp_path, doc):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(doc))
        return run_err(["rigid", "of-pair", "--pair", str(path)])

    def test_not_an_object(self, tmp_path):
        code, err = self.run_doc(tmp_path, [1, 2])
        assert code == 2 and err == "error: document must be a JSON object\n"

    def test_missing_rank(self, tmp_path):
        code, err = self.run_doc(tmp_path, {"schema": 1})
        assert code == 2 and "'rank'" in err

    def test_missing_nested_key(self, tmp_path):
        code, err = self.run_doc(tmp_path, self.doc(free={"finite": []}))
        assert code == 2 and "'free.rays'" in err

    def test_finite_not_list_of_strings(self, tmp_path):
        doc = self.doc(torsion={"finite": "M[1,3]", "corays": []})
        code, err = self.run_doc(tmp_path, doc)
        assert code == 2 and "'torsion.finite'" in err

    def test_rays_not_list_of_integers(self, tmp_path):
        code, err = self.run_doc(tmp_path, self.doc(free={"finite": [], "rays": [0.5]}))
        assert code == 2 and "'free.rays'" in err

    def test_one_sided_arc_in_full_ray_family(self, tmp_path):
        code, err = self.run_doc(tmp_path, self.doc(free={"finite": ["M[0,inf]"], "rays": [0, 1]}))
        assert code == 2 and "M[0,inf]" in err


class TestPairOfRigid:
    def test_text_output(self):
        code, out = run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[0,2]"])
        assert code == 0
        assert out == "ray: T = M[1,3] ; F = rays[0]\n"

    def test_not_rigid_exits_2(self):
        assert run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[-inf,0]"])[0] == 2

    def test_wrong_summand_count_exits_2(self):
        assert run(["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf]"])[0] == 2

    def test_bad_list_exits_1(self):
        assert run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],zzz"])[0] == 1


class TestRenderAndQuiver:
    def test_render_to_file(self, tmp_path):
        out = tmp_path / "pic.svg"
        code, _ = run(
            ["render", "--mode", "annulus", "--rank", "3", "--out", str(out),
             "--arc", "M[0,inf]:prufer", "--arc", "M[0,2]"]
        )
        assert code == 0
        data = out.read_bytes()
        assert data.startswith(b"<?xml")
        run(["render", "--mode", "annulus", "--rank", "3", "--out", str(out),
             "--arc", "M[0,inf]:prufer", "--arc", "M[0,2]"])
        assert out.read_bytes() == data

    def test_render_stdout(self):
        code, out = run(["render", "--mode", "segment", "--m", "3", "--arc", "M[0,4]"])
        assert code == 0 and out.startswith("<?xml")

    def test_segment_needs_m(self):
        assert run(["render", "--mode", "segment", "--arc", "M[0,2]"])[0] == 1

    def test_segment_negative_start_reported_unwrapped(self):
        code, err = run_err(["render", "--mode", "segment", "--m", "3", "--arc", "M[-1,2]"])
        assert code == 1 and "arc [-1,2] does not fit" in err

    def test_segment_rejects_one_sided_arcs(self):
        assert run(["render", "--mode", "segment", "--m", "3", "--arc", "M[0,inf]"])[0] == 1

    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_ar_quiver_max_length_below_one(self, value):
        code, err = run_err(["ar-quiver", "--rank", "2", "--max-length", value])
        assert code == 1 and "--max-length" in err

    def test_ar_quiver(self):
        code, out = run(["ar-quiver", "--rank", "2", "--max-length", "2"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 2
        assert "M[0,2]" in lines[1] and "M[1,3]" in lines[1]

    def test_usage_error_on_unknown_command(self):
        assert run(["frobnicate"])[0] == 1


class TestCrossProcessDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["pairs", "enumerate", "--rank", "3"],
            ["rigid", "enumerate", "--rank", "3", "--json"],
            ["render", "--mode", "cover", "--rank", "2", "--arc", "M[0,inf]:prufer"],
        ],
    )
    def test_fresh_interpreters_agree(self, argv):
        cmd = [sys.executable, "-m", "tubecalc"] + argv
        first = subprocess.run(cmd, capture_output=True, check=True)
        second = subprocess.run(cmd, capture_output=True, check=True)
        assert first.stdout == second.stdout
        assert first.stdout
