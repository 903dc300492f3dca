import contextlib
import hashlib
import io
import json
import random
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import recat.cli as cli
import recat.gen as gen
import recat.tnorm as tn
import recat.values as vals
from recat import fixtures


@pytest.fixture
def files(tmp_path):
    def write(name, data):
        p = tmp_path / name
        p.write_text(json.dumps(data))
        return str(p)

    a2 = fixtures.a2().to_json()
    g5 = fixtures.g5().to_json()
    bad = dict(a2)
    bad["hom"] = [["1", "1", "0"], ["0", "1", "1"], ["0", "0", "1"]]
    bad["names"] = ["a", "b", "c"]
    twin = dict(a2)
    twin["hom"] = [["1", "1"], ["1", "1"]]
    return {
        "a2": write("a2.json", a2),
        "g5": write("g5.json", g5),
        "bad": write("bad.json", bad),
        "twin": write("twin.json", twin),
        "g5w": write("g5w.json", {"base": "g5.json", "values": ["1", "1", "1/2", "1/2", "1/2"]}),
        "ya": write("ya.json", {"base": "a2.json", "values": ["1", "0"]}),
        "short": write("short.json", {"base": "g5.json", "values": ["1", "0"]}),
        "broken": str((tmp_path / "broken.json").write_text("not json") or tmp_path / "broken.json"),
    }


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestCheck:
    def test_a2_ok(self, files, capsys):
        code, out = run(capsys, "check", files["a2"])
        assert code == 0 and json.loads(out)["ok"]

    def test_broken_transitivity(self, files, capsys):
        code, out = run(capsys, "check", files["bad"])
        data = json.loads(out)
        assert code == 1 and data["reason"] == "transitivity" and len(data["witness"]) == 3

    def test_malformed_json(self, files, capsys):
        code, out = run(capsys, "check", files["broken"])
        assert code == 2


class TestClassify:
    def test_g5_conically_flat_only(self, files, capsys):
        code, out = run(capsys, "classify", files["g5"], files["g5w"])
        flags = json.loads(out)["flags"]
        assert code == 0
        assert flags == {
            "representable": False,
            "cauchy": False,
            "ideal": False,
            "conically_flat": True,
            "flat": False,
        }

    def test_yoneda_all_true(self, files, capsys):
        code, out = run(capsys, "classify", files["a2"], files["ya"])
        assert code == 0 and all(json.loads(out)["flags"].values())

    def test_size_mismatch(self, files, capsys):
        # a weight of the wrong length is a bad weight file, as a non-square hom is a bad category file
        code, out = run(capsys, "classify", files["g5"], files["short"])
        assert code == 2
        assert json.loads(out) == {"error": f"bad weight file {files['short']}: weight has 2 entries for a 5-point carrier"}

    @pytest.mark.parametrize(
        "body, message",
        [
            ([1, 2], "a weight must be a JSON object, not list"),
            ("1/2", "a weight must be a JSON object, not str"),
            ({"base": "a2.json"}, "a weight has no 'values' field"),
        ],
    )
    def test_a_weight_file_that_is_no_object_or_lacks_values_is_named(self, files, tmp_path, capsys, body, message):
        # these used to print "list indices must be integers or slices, not str" and "'values'"
        weight = tmp_path / "w.json"
        weight.write_text(json.dumps(body))
        code, out = run(capsys, "classify", files["a2"], str(weight))
        assert code == 2 and json.loads(out) == {"error": f"bad weight file {weight}: {message}"}

    @pytest.mark.parametrize("values", [[], ["1"], ["1", "0", "0"]])
    def test_a_weight_of_the_wrong_length_exits_2(self, tmp_path, capsys, values):
        # this used to exit 1 with {"error": "weight has 1 entries for a 2-point carrier"}
        category, weight = tmp_path / "luka2.json", tmp_path / "w.json"
        category.write_text(json.dumps({"tnorm": "lukasiewicz", "grid": ["0", "1/2", "1"], "hom": [["1", "1/2"], ["0", "1"]]}))
        weight.write_text(json.dumps({"values": values}))
        code, out = run(capsys, "classify", str(category), str(weight))
        message = f"bad weight file {weight}: weight has {len(values)} entries for a 2-point carrier"
        assert code == 2 and json.loads(out) == {"error": message}


class TestBalls:
    def test_a2_eight_nodes(self, files, capsys):
        code, out = run(capsys, "balls", files["a2"], "--grid", "{0,1/3,2/3,1}")
        assert code == 0
        nodes = [l for l in out.splitlines() if l.strip().endswith('";') and "->" not in l]
        assert len(nodes) == 8


class TestComplete:
    def test_twin_collapses(self, files, capsys):
        code, out = run(capsys, "complete", files["twin"])
        data = json.loads(out)
        assert code == 0 and len(data["hom"]) == 1 and data["embedding"] == [0, 0]

    def test_round_trip_recheck_and_idempotence(self, files, capsys, tmp_path):
        code, out = run(capsys, "complete", files["twin"])
        p = tmp_path / "completed.json"
        data = json.loads(out)
        del data["embedding"]
        p.write_text(json.dumps(data))
        code2, out2 = run(capsys, "check", str(p))
        assert code2 == 0
        code3, out3 = run(capsys, "complete", str(p))
        assert code3 == 0 and len(json.loads(out3)["hom"]) == 1


class TestLaws:
    def test_tnorm_suite_passes(self, capsys):
        code, out = run(capsys, "laws", "tnorm", "--tnorm", "lukasiewicz", "--seed", "3")
        data = json.loads(out)
        assert code == 0 and data["pass"] and data["seed"] == 3

    def test_deterministic_under_seed(self, capsys):
        _, out1 = run(capsys, "laws", "kz", "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}", "--seed", "11")
        _, out2 = run(capsys, "laws", "kz", "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}", "--seed", "11")
        assert out1 == out2

    def test_float_mode_flag(self, capsys):
        code, out = run(capsys, "laws", "tnorm", "--tnorm", "lukasiewicz", "--mode", "float", "--seed", "4")
        data = json.loads(out)
        assert code == 0 and data["pass"]
        assert all("float" in c["name"] or "generator" in c["name"] for c in data["checks"])
        code2, _ = run(capsys, "laws", "kz", "--tnorm", "product")
        assert code2 == 1

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize(
        "tnorm",
        [
            "ordinal[(0,1/2,lukasiewicz)]",
            "ordinal[(1/2,1,lukasiewicz)]",
            "ordinal[(1/4,1/2,lukasiewicz)]",
            "ordinal[(0,1,lukasiewicz)]",
        ],
    )
    def test_module_suite_passes_on_ordinal_sums(self, capsys, tnorm, seed):
        # random chain modules were Godel chains that an ordinal sum need not close,
        # and the negation verdict expected a failure for ordinal[(0,1,lukasiewicz)]
        argv = ["laws", "module", "--tnorm", tnorm, "--grid", "{0,1/4,1/2,3/4,1}", "--seed", str(seed)]
        code, out = run(capsys, *argv)
        assert code == 0 and json.loads(out)["pass"]

    def test_filters_negative_witness_on_interior_block(self, capsys):
        code, out = run(
            capsys,
            "laws",
            "filters",
            "--tnorm",
            "ordinal[(1/2,1,lukasiewicz)]",
            "--grid",
            "{0,1/4,1/2,5/8,3/4,7/8,1}",
            "--seed",
            "0",
        )
        data = json.loads(out)
        assert code == 0 and data["pass"]
        names = {c["name"] for c in data["checks"]}
        assert "cotensor_escapes_class" in names

    def test_filters_honours_the_bound(self, capsys):
        # C(13, 7) = 1716 candidate tables on the 7-point grid
        grid = "{0,1/6,1/3,1/2,2/3,5/6,1}"
        code, out = run(capsys, "laws", "filters", "--tnorm", "lukasiewicz", "--grid", grid, "--bound", "1000")
        data = json.loads(out)
        assert code == 3 and set(data) == {"error", "seed"}

    def test_stdout_and_exit_codes_are_pinned(self, capsys):
        # one sha256 over a fixed matrix of seeded runs; a change to any
        # report byte or exit code changes it
        matrix = [
            ["laws", suite, *tnorm, "--seed", str(seed)]
            for suite in ("filters", "kan", "kz", "module", "tnorm")
            for tnorm in (["--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}"], ["--tnorm", "godel"])
            for seed in (0, 1)
        ]
        matrix += [["laws", "tnorm", "--tnorm", t, "--mode", "float"] for t in ("product", "ordinal[(0,1/2,product)]")]
        h = hashlib.sha256()
        for argv in matrix:
            code, out = run(capsys, *argv)
            h.update(json.dumps([argv, code, out]).encode())
        assert h.hexdigest() == "285efa1e544b28eece96b96bd42919407658ad88ef0a249759969bb6aa708aaa"

    def test_failure_witness_is_encoded(self, capsys, monkeypatch):
        # the first violation is the witness, its grid indices mapped to exact values as "p/q"
        violation = ((3, 1), (2, 0))  # ((1, 1/3), (2/3, 0)) on the grid {0, 1/3, 2/3, 1}
        monkeypatch.setattr(cli, "_kz_loop", lambda bound, verdict, phis, gammas: (0, [violation, None]))
        code, out = run(capsys, "laws", "kz", "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}")
        check = json.loads(out)["checks"][0]
        assert code == 1 and check["name"] == "kz_inequality" and not check["pass"]
        assert check["witness"] == [["1", "1/3"], ["2/3", "0"]]

    def test_kan_failure_witness_is_encoded(self, capsys, monkeypatch):
        # the first failing draw is the witness [mapping, phi, gamma], exact values as "p/q";
        # the first residual the suite computes is forced off the grid, so the first draw fails
        real, calls = cli._residual_left_on, []

        def first_differs(imp, tt_cols, r_cols, one):
            calls.append(None)
            return ((-1,),) if len(calls) == 1 else real(imp, tt_cols, r_cols, one)

        monkeypatch.setattr(cli, "_residual_left_on", first_differs)
        code, out = run(capsys, "laws", "kan", "--tnorm", "lukasiewicz", "--grid", "{0,1/3,2/3,1}")
        check = json.loads(out)["checks"][0]
        assert code == 1 and check["name"] == "kan_adjunction" and not check["pass"]
        assert check["witness"] == [[0, 0, 0, 0], ["1", "1", "1/3", "1"], ["1"]]
        # that is the first draw of seed 0
        grid = vals.unit_grid(3, tn.lukasiewicz)
        rng = random.Random(0)
        X = gen.random_category(rng, rng.randint(1, 4), grid)
        Y = gen.random_category(rng, rng.randint(1, 4), grid)
        f = gen.random_functor(rng, X, Y)
        first = (f.mapping, gen.random_weight(rng, X).values, gen.random_weight(rng, Y).values)
        assert check["witness"] == vals._encode(first)


class TestMalformedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("balls", "{a2}", "--grid", "{0,1/0,1}"),
            ("balls", "{a2}", "--grid", "{0,abc,1}"),
            ("laws", "kz", "--tnorm", "ordinal[(0,1)]"),
        ],
    )
    def test_bad_option_exits_2(self, files, capsys, argv):
        code, out = run(capsys, *(files["a2"] if a == "{a2}" else a for a in argv))
        assert code == 2 and "error" in json.loads(out)

    def test_bad_grid_in_file_exits_2(self, tmp_path, capsys):
        data = fixtures.a2().to_json()
        data["grid"] = ["0", "1/0", "1"]
        p = tmp_path / "zero.json"
        p.write_text(json.dumps(data))
        code, out = run(capsys, "check", str(p))
        assert code == 2 and "error" in json.loads(out)

    @pytest.mark.parametrize(
        "body, message",
        [
            ([1, 2], "a category must be a JSON object, not list"),
            (None, "a category must be a JSON object, not NoneType"),
            ({"tnorm": "godel"}, "a category has no 'hom' field"),
            ({"hom": [["1"]]}, "a category has no 'tnorm' field"),
        ],
    )
    def test_a_category_file_that_is_no_object_or_lacks_a_field_is_named(self, tmp_path, capsys, body, message):
        # these used to print "list indices must be integers or slices, not str" and "'hom'"
        p = tmp_path / "c.json"
        p.write_text(json.dumps(body))
        for command in ("check", "complete", "balls"):
            code, out = run(capsys, command, str(p))
            assert code == 2 and json.loads(out) == {"error": f"bad category file {p}: {message}"}

    @pytest.mark.parametrize(
        "argv",
        [
            ("laws", "kz", "--tnorm"),
            ("laws",),
            ("laws", "nosuchsuite"),
            ("check",),
            ("check", "a.json", "extra"),
            ("nosuchcommand",),
            (),
        ],
    )
    def test_usage_error_exits_2_with_a_json_body(self, capsys, argv):
        code, out = run(capsys, *argv)
        assert code == 2 and "error" in json.loads(out)

    def test_help_still_exits_0(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["laws", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: recat")

    def test_off_grid_values_exit_2(self, tmp_path, capsys):
        cat = {"tnorm": "lukasiewicz", "grid": ["0", "1/2", "1"], "hom": [["1", "1/3"], ["0", "1"]]}
        p = tmp_path / "off.json"
        p.write_text(json.dumps(cat))
        for command in ("check", "complete"):
            code, out = run(capsys, command, str(p))
            assert code == 2 and "not a grid point" in json.loads(out)["error"]
        a2 = tmp_path / "a2.json"
        a2.write_text(json.dumps(fixtures.a2().to_json()))
        w = tmp_path / "w.json"
        w.write_text(json.dumps({"values": ["1", "1/2"]}))
        code, out = run(capsys, "classify", str(a2), str(w))
        assert code == 2 and "not a grid point" in json.loads(out)["error"]

    @pytest.mark.parametrize("command", ["check", "classify", "complete", "balls"])
    def test_float_hom_beside_a_grid_exits_2(self, tmp_path, capsys, command):
        # a grid holds exact values; such a file used to get answers that
        # depended on the command and the weight
        c, w = tmp_path / "c.json", tmp_path / "w.json"
        c.write_text(json.dumps({"tnorm": "lukasiewicz", "grid": ["0", "1/2", "1"], "hom": [[1.0, 0.5], [0.0, 1.0]]}))
        w.write_text(json.dumps({"values": [1.0, 0.0]}))
        code, out = run(capsys, command, str(c), *([str(w)] if command == "classify" else []))
        assert code == 2 and "error" in json.loads(out)

    def test_grid_option_on_a_float_category_exits_2(self, tmp_path, capsys):
        c = tmp_path / "c.json"
        c.write_text(json.dumps({"tnorm": "lukasiewicz", "hom": [[1.0, 0.5], [0.0, 1.0]]}))
        code, out = run(capsys, "balls", str(c), "--grid", "{0,1/2,1}")
        assert code == 2 and "error" in json.loads(out)

    @pytest.mark.parametrize(
        "category, values",
        [
            (fixtures.a2().to_json(), [1.0, 0.0]),
            ({"tnorm": "product", "hom": [[1.0, 0.5], [0.0, 1.0]]}, ["1/2", 1.0]),
            ({"tnorm": "product", "hom": [[1.0, 0.5], [0.0, 1.0]]}, [1.0, 1]),
        ],
    )
    def test_weight_mode_differs_from_category_exits_2(self, tmp_path, capsys, category, values):
        c, w = tmp_path / "c.json", tmp_path / "w.json"
        c.write_text(json.dumps(category))
        w.write_text(json.dumps({"values": values}))
        code, out = run(capsys, "classify", str(c), str(w))
        assert code == 2 and "category" in json.loads(out)["error"]

    @pytest.mark.parametrize("names", [["a", "a"], [{"a": 1}, None]])
    def test_names_not_distinct_strings_exit_2(self, tmp_path, capsys, names):
        # such names made `balls` print one DOT node for two distinct balls
        cat = {"tnorm": "godel", "grid": ["0", "1"], "names": names, "hom": [["1", "0"], ["0", "1"]]}
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cat))
        for command in ("check", "balls"):
            code, out = run(capsys, command, str(p))
            assert code == 2 and "names must be distinct strings" in json.loads(out)["error"]

    @pytest.mark.parametrize("tnorm", [5, None, ["godel"]])
    def test_non_string_tnorm_exits_2(self, tmp_path, capsys, tnorm):
        data = fixtures.a2().to_json()
        data["tnorm"] = tnorm
        p = tmp_path / "c.json"
        p.write_text(json.dumps(data))
        code, out = run(capsys, "check", str(p))
        assert code == 2 and "cannot parse t-norm" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "category, values",
        [
            ({"tnorm": "godel", "grid": "01", "hom": [["1", "0"], ["0", "1"]]}, None),
            ({"tnorm": "godel", "hom": [["1", "0"], "01"]}, None),
            ({"tnorm": "godel", "hom": "1"}, None),
            ({"tnorm": "godel", "names": "ab", "hom": [["1", "0"], ["0", "1"]]}, None),
            ({"tnorm": "godel", "hom": [[True, False], [False, True]]}, None),
            ({"tnorm": "godel", "grid": [False, True], "hom": [["1", "0"], ["0", "1"]]}, None),
            ({"tnorm": "godel", "hom": [["1", "0"], ["0", "1"]]}, "10"),
            ({"tnorm": "godel", "hom": [["1", "0"], ["0", "1"]]}, [True, False]),
            ({"tnorm": "godel", "hom": [["1", "0"], ["0", "1"]]}, ["1", None]),
        ],
    )
    def test_wrong_json_types_exit_2(self, tmp_path, capsys, category, values):
        c = tmp_path / "c.json"
        c.write_text(json.dumps(category))
        argv = ["check", str(c)]
        if values is not None:
            w = tmp_path / "w.json"
            w.write_text(json.dumps({"values": values}))
            argv = ["classify", str(c), str(w)]
        code, out = run(capsys, *argv)
        assert code == 2 and "error" in json.loads(out)


# Fragments that join into well-formed and malformed grids, t-norms and values.
# None ends in a digit followed by 'e', so no string is a huge exponent literal.
FRAGMENTS = ["0", "1", "1/2", "1/3", "2/3", "1/0", "-1", "2", "abc", ",", "/", " ",
             "(", ")", "[", "]", "{", "}", "ordinal", "lukasiewicz", "godel", "product"]


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["grid", "tnorm", "hom", "weight"]),
    text=st.lists(st.sampled_from(FRAGMENTS), max_size=8).map("".join),
)
def test_cli_always_exits_with_a_json_body(kind, text):
    with tempfile.TemporaryDirectory() as tmp:
        a2 = fixtures.a2().to_json()
        if kind == "hom":
            a2["hom"][0][1] = text
        cpath = Path(tmp) / "a2.json"
        cpath.write_text(json.dumps(a2))
        wpath = Path(tmp) / "w.json"
        wpath.write_text(json.dumps({"values": ["1", text]}))
        argv = {
            "grid": ["laws", "tnorm", "--grid", text, "--seed", "0"],
            "tnorm": ["laws", "tnorm", "--tnorm", text, "--seed", "0"],
            "hom": ["check", str(cpath)],
            "weight": ["classify", str(cpath), str(wpath)],
        }[kind]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    json.loads(out.getvalue())


# Values of each JSON type; none is what a category or weight field expects
# where it is put.  The strings avoid 'e', so none is a huge exponent literal.
WRONG_TYPES = st.one_of(
    st.integers(-2, 2),
    st.floats(-1, 2),
    st.text(alphabet="01/ab ", max_size=4),
    st.none(),
    st.booleans(),
    st.dictionaries(st.sampled_from(["a", "0"]), st.sampled_from(["0", "1"]), max_size=2),
)


@settings(max_examples=120, deadline=None)
@given(
    field=st.sampled_from(["tnorm", "grid", "names", "hom", "hom row", "hom value", "values", "value"]),
    value=WRONG_TYPES,
)
def test_cli_wrong_json_types_exit_with_a_json_body(field, value):
    a2 = fixtures.a2().to_json()
    weight = {"values": ["1", "0"]}
    if field in ("tnorm", "grid", "names", "hom"):
        a2[field] = value
    elif field == "hom row":
        a2["hom"][0] = value
    elif field == "hom value":
        a2["hom"][0][1] = value
    elif field == "values":
        weight["values"] = value
    else:
        weight["values"][1] = value
    with tempfile.TemporaryDirectory() as tmp:
        cpath, wpath = Path(tmp) / "a2.json", Path(tmp) / "w.json"
        cpath.write_text(json.dumps(a2))
        wpath.write_text(json.dumps(weight))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["classify", str(cpath), str(wpath)])
    assert code in (0, 1, 2, 3)
    json.loads(out.getvalue())
    if field in ("hom", "hom row", "values") or (field in ("grid", "names") and value is not None):
        assert code == 2
