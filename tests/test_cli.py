import contextlib
import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from math import comb

import pytest

from limits import needs_alarm, time_limit
from tubecalc import cli
from tubecalc.arcs import Tube
from tubecalc.cli import main
from tubecalc.serialize import pair_from_doc, pair_to_doc, rigid_to_doc
from tubecalc.torsion import (
    MAX_COUNT_RANK, ValidationError, enumerate_max_rigid, max_rigid_of, torsion_pair_of,
)


def run_both(argv):
    """Exit code, standard output and standard error of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run(argv):
    code, out, _ = run_both(argv)
    return code, out


def run_err(argv):
    code, _, err = run_both(argv)
    return code, err


class HashSink:
    """A stdout that hashes what it is given and keeps none of it."""

    def __init__(self):
        self.sha256 = hashlib.sha256()

    def write(self, text):
        self.sha256.update(text.encode("utf-8"))
        return len(text)

    def flush(self):
        pass


def pair_doc(rank, kind, torsion_finite=(), free_rays=()):
    return {
        "schema": 1, "rank": rank, "kind": kind,
        "torsion": {"finite": list(torsion_finite), "corays": []},
        "free": {"finite": [], "rays": list(free_rays)},
    }


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
        # int() reads Arabic-Indic digits; the grammar must not
        assert run(["hom", "--rank", "3", "M[\u0660,\u0663]", "M[0,3]"])[0] == 1

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

    @needs_alarm
    def test_count_at_rank_200(self):
        with time_limit(5):
            code, out = run(["pairs", "count", "--rank", "200"])
        assert (code, int(out)) == (0, 2 * comb(399, 199))


class TestOutputBytes:
    """SHA-256 of whole outputs, so a byte change in enumeration, the
    bijection or serialization fails here and not only in the benchmark."""

    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["pairs", "enumerate", "--rank", "6", "--json"],
                "48791761b39506f0399db47ef1f720947559d20e8d18b8f68f9e10137cdd0a78",
            ),
            (
                ["rigid", "enumerate", "--rank", "5", "--json"],
                "d13da55cef8d50907c969f92b28da574cfbd7c62477b88cb336ca299ddfc561e",
            ),
            (
                ["pairs", "enumerate", "--rank", "4"],
                "5bde0e596b302d5ef13fbb094dfb446223e2e178179cfd34e5e82abeef6f5db3",
            ),
        ],
    )
    def test_pinned_digest(self, argv, digest):
        code, out = run(argv)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    # the census pin (CENSUS_SHA256 of perfbench/workloads.py, copied) and the
    # other three rank-8 enumerations, taken before their output was streamed
    @pytest.mark.parametrize(
        "argv,digest",
        [
            (
                ["pairs", "enumerate", "--rank", "8", "--json"],
                "a528d6fc621ede178d6829b2d976bf3e5b2975fd492820b804456d2a1930e016",
            ),
            (
                ["pairs", "enumerate", "--rank", "8"],
                "546cc3dc5b6c646ceb168a5164359a09fbaab5118bc00aab632d602dbed4d047",
            ),
            (
                ["rigid", "enumerate", "--rank", "8", "--json"],
                "a0157d5a014e6500c9dcbcdb9f7c64db5a2cdecc4acf73b0036a66736cb8ca0a",
            ),
            (
                ["rigid", "enumerate", "--rank", "8"],
                "eb4b8d05a5d7dbb8d3b012e682ed99d7dff57c0a52eaac657a939eba6c94ba13",
            ),
        ],
        ids=["pairs-json", "pairs-text", "rigid-json", "rigid-text"],
    )
    def test_rank_8_digest(self, argv, digest):
        sink = HashSink()
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        assert sink.sha256.hexdigest() == digest

    @pytest.mark.parametrize("rank", range(1, 8))
    def test_streamed_json_is_the_whole_document(self, rank):
        tube = Tube(rank)
        rigids = enumerate_max_rigid(tube)
        whole = {
            "pairs": {"schema": 1, "rank": rank, "pairs": [
                pair_to_doc(tube, torsion_pair_of(tube, u)) for u in rigids
            ]},
            "rigid": {"schema": 1, "rank": rank, "objects": [rigid_to_doc(tube, u) for u in rigids]},
        }
        for command, doc in whole.items():
            code, out = run([command, "enumerate", "--rank", str(rank), "--json"])
            assert code == 0
            assert out == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


class TestEnumerationBounds:
    @needs_alarm
    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["pairs", "enumerate", "--rank", "12"], "MAX_OBJECTS"),
            (["rigid", "enumerate", "--rank", "12", "--json"], "MAX_OBJECTS"),
            (["pairs", "enumerate", "--rank", "100000000"], "MAX_OBJECTS"),
            (["pairs", "count", "--rank", "100000000"], "MAX_COUNT_RANK"),
            (["pairs", "count", "--rank", str(MAX_COUNT_RANK + 1)], "MAX_COUNT_RANK"),
        ],
        ids=["pairs-12", "rigid-12-json", "pairs-huge", "count-huge", "count-past-bound"],
    )
    def test_above_the_bound_exits_1_before_writing(self, argv, bound):
        with time_limit(5):
            code, out, err = run_both(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and f"the bound {bound} = " in err

    def test_objects_bound_sits_between_ranks_11_and_12(self):
        assert 2 * comb(21, 10) <= cli.MAX_OBJECTS < 2 * comb(23, 11)

    @needs_alarm
    def test_count_answers_at_its_bound(self):
        # fails an O(n^2) count, which takes 0.44 s at rank 1000 already
        with time_limit(2):
            code, out = run(["pairs", "count", "--rank", str(MAX_COUNT_RANK)])
        assert (code, int(out)) == (0, 2 * comb(2 * MAX_COUNT_RANK - 1, MAX_COUNT_RANK - 1))

    @pytest.mark.parametrize("command", ["pairs", "rigid"])
    def test_memory_stays_flat(self, command):
        # whole documents took 15.8 MB (pairs) and 10.8 MB (rigid) at rank 7
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(HashSink()):
                assert main([command, "enumerate", "--rank", "7", "--json"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


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

    def test_torsion_side_with_a_swapped_arc_exits_2(self, tmp_path):
        # the pair of M[0,2] M[0,3] M[0,inf] with T's M[1,4] swapped for
        # M[1,5], whose quotients M[2,5] and M[0,2] T does not list: it
        # numbers 3 arcs of its 5-arc quotient closure
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps(pair_doc(3, "ray", torsion_finite=["M[1,3]", "M[1,5]", "M[2,4]"], free_rays=[0])))
        code, err = run_err(["rigid", "of-pair", "--pair", str(path)])
        assert (code, err) == (2, "error: input does not validate as a torsion pair\n")

    @needs_alarm
    def test_all_rays_document_at_rank_200(self, tmp_path):
        # F = everything: the inverse is the 200 Prufers; the time limit
        # catches a scan whose work grows with rank x cutoff
        n = 200
        path = tmp_path / "all_rays.json"
        path.write_text(json.dumps(pair_doc(n, "ray", free_rays=list(range(n)))))
        with time_limit(10):
            code, out = run(["rigid", "of-pair", "--pair", str(path)])
        assert code == 0
        kind, summands = out.split(": ")
        assert kind == "prufer"
        assert summands.split() == [f"M[{i},inf]" for i in range(n)]

    @needs_alarm
    def test_huge_arc_rejected_promptly(self, tmp_path):
        # only the last n quotients of an arc can be the shortest at their
        # start, so the work must not grow with the length of an arc
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(pair_doc(3, "ray", torsion_finite=["M[0,1000000000]"], free_rays=[1])))
        with time_limit(10):
            code, err = run_err(["rigid", "of-pair", "--pair", str(path)])
        assert (code, err) == (2, "error: input does not validate as a torsion pair\n")

    @needs_alarm
    def test_few_items_at_huge_rank_rejected_promptly(self, tmp_path):
        # a pair lists at least rank items, so a one-ray document is refused
        # before any perp walks the rank
        path = tmp_path / "sparse.json"
        path.write_text(json.dumps(pair_doc(10**12, "ray", free_rays=[0])))
        with time_limit(10):
            code, err = run_err(["rigid", "of-pair", "--pair", str(path)])
        assert (code, err) == (2, "error: input does not validate as a torsion pair\n")

    def test_few_items_at_large_rank_take_no_memory(self):
        doc = pair_doc(10**6, "ray", free_rays=[0])
        tracemalloc.start()
        try:
            tube, pair = pair_from_doc(doc)
            with pytest.raises(ValidationError):
                max_rigid_of(tube, pair)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

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

    def test_one_sided_arc_names_the_torsion_key(self, tmp_path):
        doc = self.doc(torsion={"finite": ["M[1,3]", "M[-inf,0]"], "corays": []})
        code, err = self.run_doc(tmp_path, doc)
        assert code == 2
        assert err == "error: key 'torsion.finite': descriptors list finite arcs only, got M[-inf,0]\n"

    def test_one_sided_arc_names_the_free_key(self, tmp_path):
        code, err = self.run_doc(tmp_path, self.doc(free={"finite": ["M[0,inf]"], "rays": [0]}))
        assert code == 2
        assert err == "error: key 'free.finite': descriptors list finite arcs only, got M[0,inf]\n"

    def test_short_arc_names_the_key(self, tmp_path):
        code, err = self.run_doc(tmp_path, self.doc(free={"finite": ["M[0,1]"], "rays": [0]}))
        assert code == 2
        assert err == "error: key 'free.finite': finite arc needs end >= start+2, got [0,1]\n"

    def test_parse_error_comes_before_a_one_sided_arc(self, tmp_path):
        doc = self.doc(torsion={"finite": ["M[0,inf]", "M[2,1]"], "corays": []})
        code, err = self.run_doc(tmp_path, doc)
        assert code == 2
        assert err == "error: key 'torsion.finite': finite arc needs end >= start+2, got [2,1]\n"

    def test_keys_that_are_not_read(self, tmp_path):
        # a torsion side with a proper ray family, which pair_to_doc refuses
        # to write, is refused, not read without its rays
        doc = self.doc(torsion={"finite": ["M[0,2]"], "corays": [], "rays": [0, 1]},
                       free={"finite": [], "rays": [1], "corays": [0]}, junk=7)
        assert self.run_doc(tmp_path, doc) == (2, "error: a pair document holds no key 'junk'\n")
        del doc["junk"]
        assert self.run_doc(tmp_path, doc) == (2, "error: a pair document holds no key 'torsion.rays'\n")
        del doc["torsion"]["rays"]
        assert self.run_doc(tmp_path, doc) == (2, "error: a pair document holds no key 'free.corays'\n")
        del doc["free"]["corays"]
        (tmp_path / "pair.json").write_text(json.dumps(doc))
        assert run(["rigid", "of-pair", "--pair", str(tmp_path / "pair.json")]) == (0, "prufer: M[1,3] M[1,inf]\n")

    def test_deeply_nested_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text("[" * 200000 + "]" * 200000)
        code, err = run_err(["rigid", "of-pair", "--pair", str(path)])
        assert code == 1 and err.startswith("error: cannot read pair file")


class TestPairOfRigid:
    def test_text_output(self):
        code, out = run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[0,2]"])
        assert code == 0
        assert out == "ray: T = M[1,3] ; F = rays[0]\n"

    def test_not_rigid_exits_2(self):
        assert run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[-inf,0]"])[0] == 2

    def test_wrong_summand_count_exits_2(self):
        assert run(["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf]"])[0] == 2

    def test_crossing_summands_exit_2(self):
        # torsion_pair_of trusts the crossing; its pair is no torsion pair
        argv = ["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf],M[0,2],M[1,3]"]
        assert run_err(argv) == (2, "error: summand set is not rigid\n")

    @pytest.mark.parametrize(
        "rank,summands,message",
        [
            ("2", "M[0,inf],M[-inf,0]", "Prufer-type object holds the adic summand M[-inf,0]"),
            ("3", "M[-inf,1],M[1,4],M[2,inf]", "Prufer-type object holds the adic summand M[-inf,1]"),
            ("3", "M[0,inf]", "a maximal rigid object in rank 3 has 3 summands, got 1"),
            ("2", "M[-inf,0],M[0,2],M[1,3]", "a maximal rigid object in rank 2 has 2 summands, got 3"),
            ("2", "M[0,2],M[1,3]", "summand list has no Prufer or adic summand"),
            ("3", "M[0,inf],M[0,5],M[1,3]", "summand M[0,5] spans more than 3, so it is not rigid"),
        ],
    )
    def test_refusals_name_the_summand_or_the_count(self, rank, summands, message):
        argv = ["pair-of-rigid", "--rank", rank, "--summands", summands]
        assert run_both(argv) == (2, "", f"error: {message}\n")

    @needs_alarm
    def test_rank_20000_is_not_quadratic(self):
        # rigid, with a small pair; checking Ext on all n^2 ordered pairs of
        # summands took minutes here
        n = 20000
        summands = ",".join([f"M[{i},inf]" for i in range(n) if i != 1] + ["M[0,2]"])
        with time_limit(10):
            code, out = run(["pair-of-rigid", "--rank", str(n), "--summands", summands, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["torsion"] == {"corays": [], "finite": ["M[1,3]"]}
        assert doc["free"] == {"finite": [], "rays": [i for i in range(n) if i != 1]}

    def test_bad_list_exits_1(self):
        assert run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],zzz"])[0] == 1
        assert run(["pair-of-rigid", "--rank", "2", "--summands", "M[0,inf],M[\u0660,2]"])[0] == 1


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

    @pytest.mark.parametrize(
        "mode", [["annulus", "--rank", "3"], ["cover", "--rank", "3"], ["segment", "--m", "3"]],
        ids=["annulus", "cover", "segment"],
    )
    def test_unknown_style_reported(self, mode):
        code, err = run_err(["render", "--mode", *mode, "--arc", "M[0,2]:bogus"])
        assert (code, err) == (1, "error: unknown style 'bogus'\n")

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

    @needs_alarm
    @pytest.mark.parametrize(
        "argv,bound",
        [
            (["render", "--mode", "annulus", "--rank", "3", "--arc", "M[0,100000000]"], "MAX_POINTS"),
            (["render", "--mode", "cover", "--rank", "3", "--arc", "M[0,100000000]"], "MAX_POINTS"),
            (["render", "--mode", "annulus", "--rank", "100000000"], "MAX_POINTS"),
            (["render", "--mode", "segment", "--m", "100000000", "--arc", "M[0,100000001]"], "MAX_POINTS"),
            (["ar-quiver", "--rank", "100000", "--max-length", "100000"], "MAX_CELLS"),
            # 10^5 nodes, but row l is indented by about 5 l characters
            (["ar-quiver", "--rank", "1", "--max-length", "100000"], "MAX_CHARS"),
        ],
        ids=["annulus-span", "cover-span", "annulus-rank", "segment-m", "ar-quiver", "ar-quiver-tall"],
    )
    def test_drawing_above_its_bound_exits_1(self, argv, bound):
        with time_limit(10):
            code, err = run_err(argv)
        assert code == 1 and err.startswith("error: ") and f"bound {bound} = " in err

    def test_segment_with_negative_m_exits_1(self):
        # it used to print an SVG of width -100
        code, err = run_err(["render", "--mode", "segment", "--m", "-5"])
        assert (code, err) == (1, "error: a segment needs m >= 0, got -5\n")


class TestFlagsEachCommandTakes:
    """A flag that the command does not read is refused with exit 1 and
    one error line, not ignored; a missing flag is named."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["pairs", "count", "--rank", "3", "--json"], "unrecognized arguments: --json"),
            (["rigid", "enumerate", "--rank", "2", "--pair", "PAIR"], "unrecognized arguments: --pair PAIR"),
            (["rigid", "of-pair", "--rank", "99", "--pair", "PAIR"], "unrecognized arguments: --rank 99"),
            (["render", "--mode", "segment", "--m", "3", "--rank", "3"],
             "argument --rank: not allowed with argument --m"),
            (["render", "--mode", "annulus", "--rank", "3", "--m", "3"],
             "argument --m: not allowed with argument --rank"),
            (["render", "--mode", "cover", "--rank", "3", "--m", "3"],
             "argument --m: not allowed with argument --rank"),
            # the action comes first
            (["pairs", "--rank", "3", "count"], "argument action: invalid choice: '3'"),
        ],
        ids=["pairs-count-json", "rigid-enumerate-pair", "rigid-of-pair-rank", "segment-rank",
             "annulus-m", "cover-m", "pairs-flag-first"],
    )
    def test_a_flag_the_command_does_not_take_exits_1(self, tmp_path, argv, message):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair_doc(2, "ray", torsion_finite=["M[0,2]"], free_rays=[1])))
        argv = [str(path) if token == "PAIR" else token for token in argv]
        code, out, err = run_both(argv)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        assert line.startswith("error: ") and message.replace("PAIR", str(path)) in line

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["rigid", "enumerate"], "the following arguments are required: --rank"),
            (["rigid", "of-pair"], "the following arguments are required: --pair"),
            (["render", "--mode", "segment", "--rank", "3"], "segment mode needs --m"),
            (["render", "--mode", "cover", "--m", "3"], "cover mode needs --rank"),
        ],
    )
    def test_a_missing_flag_is_named(self, argv, message):
        assert run_both(argv) == (1, "", f"error: {message}\n")


class TestExitPolicy:
    @pytest.mark.parametrize(
        "error,message",
        [(MemoryError, "error: out of memory\n"), (RecursionError, "error: recursion limit reached\n")],
    )
    def test_resource_errors_exit_cleanly(self, monkeypatch, error, message):
        def exhausted(args):
            raise error()

        monkeypatch.setattr(cli, "cmd_dim", exhausted)
        assert run_err(["hom", "--rank", "2", "M[0,2]", "M[1,3]"]) == (1, message)

    def test_full_stdout_exits_1(self):
        class FullDevice(io.StringIO):
            def write(self, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        err = io.StringIO()
        with contextlib.redirect_stdout(FullDevice()), contextlib.redirect_stderr(err):
            code = main(["pairs", "enumerate", "--rank", "4"])
        assert (code, err.getvalue()) == (1, f"error: [Errno 28] {os.strerror(errno.ENOSPC)}\n")

    @needs_alarm
    def test_reader_that_closes_early(self):
        # rank 9 writes about 12 MB, far more than a pipe holds, so the
        # writer is still writing when the reader goes away
        proc = subprocess.Popen(
            [sys.executable, "-m", "tubecalc", "pairs", "enumerate", "--rank", "9"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        with time_limit(60):
            head = proc.stdout.read(50)
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait()
        proc.stderr.close()
        assert len(head) == 50
        assert code == 1
        assert all(line.startswith(b"error: ") for line in err.splitlines()), err

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
    @pytest.mark.parametrize(
        "argv",
        [
            # a few bytes: stdout is buffered, so the failure comes at the exit flush
            ["pairs", "count", "--rank", "3"],
            # about 110 kB: the failure comes at a write inside main
            ["pairs", "enumerate", "--rank", "6"],
        ],
        ids=["exit-flush", "write"],
    )
    def test_full_device_exits_1_from_the_process_entry(self, argv):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "tubecalc"] + argv,
                stdout=full, stderr=subprocess.PIPE, env=env, timeout=60,
            )
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == [f"error: [Errno 28] {os.strerror(errno.ENOSPC)}"]


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

    def test_refusals_name_the_same_summand(self):
        # a set of arcs holding None iterates in an order that, before
        # Python 3.12, follows the address of None and so varies between runs
        summands = ",".join(["M[0,inf]"] + [f"M[-inf,{j}]" for j in range(1, 8)])
        cmd = [sys.executable, "-m", "tubecalc", "pair-of-rigid", "--rank", "8", "--summands", summands]
        errs = {subprocess.run(cmd, capture_output=True).stderr for _ in range(4)}
        assert errs == {b"error: Prufer-type object holds the adic summand M[-inf,1]\n"}
