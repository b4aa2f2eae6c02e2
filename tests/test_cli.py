import io
import json
import sys

from locarray import cli, max_columns, verify_la
from locarray.formats import parse_array, parse_type


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_three_two(self, capsys):
        code, out, _ = run(["bound", "--N", "3", "--v", "2"], capsys)
        assert code == 0
        assert out == "4\n"

    def test_variant_flag(self, capsys):
        code, out, _ = run(["bound", "--N", "6", "--v", "3", "--variant", "bar1-1"], capsys)
        assert code == 0
        assert out == "9\n"

    def test_missing_argument_is_usage_error(self, capsys):
        code, _, _ = run(["bound", "--N", "3"], capsys)
        assert code == 2

    def test_unknown_flag_rejected(self, capsys):
        code, _, _ = run(["bound", "--N", "3", "--v", "2", "--bogus"], capsys)
        assert code == 2

    def test_more_digits_than_the_default_int_limit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(["bound", "--N", "20000", "--v", "3"], capsys)
        assert code == 0
        assert sys.get_int_max_str_digits() == limit
        digits = out.strip()
        assert len(digits) > 4300
        value = 0  # read in chunks, under the default limit
        for i in range(0, len(digits), 1000):
            chunk = digits[i:i + 1000]
            value = value * 10 ** len(chunk) + int(chunk)
        assert value == max_columns(20000, 3)


class TestTable:
    def test_text_grid(self, capsys):
        code, out, _ = run(["table", "--n-max", "4", "--v-max", "3"], capsys)
        assert code == 0
        assert out.splitlines() == ["N\\v 2 3", "2 2 1", "3 4 1", "4 8 3"]

    def test_json_grid(self, capsys):
        code, out, _ = run(
            ["table", "--n-max", "3", "--v-max", "3", "--format", "json"], capsys
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["variant"] == "11"
        assert doc["rows"][-1] == {"n": 3, "values": [4, 1]}


class TestTypeRealizeGenerate:
    def test_type_document(self, capsys):
        code, out, _ = run(["type", "--N", "6", "--v", "3"], capsys)
        assert code == 0
        t = parse_type(out)
        assert t.n == 6 and t.v == 3 and t.size() == 10

    def test_type_json_round_trip(self, capsys):
        code, out, _ = run(["type", "--N", "5", "--v", "3", "--format", "json"], capsys)
        assert code == 0
        t = parse_type(out)
        assert t.size() == 5

    def test_realize_from_file(self, tmp_path, capsys):
        type_file = tmp_path / "type.txt"
        code, out, _ = run(["type", "--N", "4", "--v", "2", "--out", str(type_file)], capsys)
        assert code == 0 and type_file.exists()
        code, out, _ = run(["realize", str(type_file)], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "N 4"
        assert lines[1] == "spreads 8"
        for ln in lines[2:]:  # two comma-joined blocks, "-" when empty, partitioning 1..4
            blocks = [b.split(",") if b != "-" else [] for b in ln.split(" ")]
            assert len(blocks) == 2
            assert sorted(int(e) for b in blocks for e in b) == [1, 2, 3, 4]

    def test_realize_include_fill(self, tmp_path, capsys):
        type_file = tmp_path / "type.txt"
        type_file.write_text("N 4\nv 2\n1 x 2 2\n")
        code, out, err = run(["realize", str(type_file), "--include-fill"], capsys)
        assert code == 2 and out == ""
        assert "unrecognized arguments: --include-fill" in err
        assert "Traceback" not in err

    def test_realize_json(self, tmp_path, capsys):
        type_file = tmp_path / "type.txt"
        type_file.write_text("N 3\nv 2\n1 x 1 2\n")
        code, out, _ = run(["realize", str(type_file), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out) == {"n": 3, "spreads": [[[1], [2, 3]]]}

    def test_realize_rejects_a_shape_that_misses_an_element(self, tmp_path, capsys):
        type_file = tmp_path / "type.txt"
        type_file.write_text("N 4\nv 2\n1 x 1 2\n")
        code, out, err = run(["realize", str(type_file)], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err

    def test_realize_names_the_oversubscribed_size(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("N 4\nv 2\n2 x 0 4\n"))
        code, out, err = run(["realize", "-"], capsys)
        assert code == 2 and out == ""
        assert err == "error: type is not admissible: 2 slots of size 0, only 1 subsets available\n"

    def test_realize_cap_exit_code(self, tmp_path, capsys):
        type_file = tmp_path / "type.txt"
        type_file.write_text("N 17\nv 2\n1 x 8 9\n")
        code, _, err = run(["realize", str(type_file)], capsys)
        assert code == 3
        assert "--cap-n" in err

    def test_generate_text(self, capsys):
        code, out, _ = run(["generate", "--N", "3", "--v", "2"], capsys)
        assert code == 0
        arr = parse_array(out)
        assert arr.n_rows == 3 and arr.k == 4

    def test_generate_deterministic_bytes(self, capsys):
        code1, out1, _ = run(["generate", "--N", "6", "--v", "3"], capsys)
        code2, out2, _ = run(["generate", "--N", "6", "--v", "3"], capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_generate_past_the_cap_with_symbols_above_255(self, capsys):
        # one column of 256 singletons and an empty block: symbols run to 256,
        # past one byte, and the slot increments stay quadratic in n
        code, out, _ = run(["generate", "--N", "256", "--v", "257", "--cap-n", "256"], capsys)
        assert code == 0
        arr = parse_array(out)
        assert (arr.n_rows, arr.k, arr.v) == (256, 1, 257)
        assert max(row[0] for row in arr.rows) >= 256
        assert verify_la(arr)

    def test_no_rows_names_n_for_every_command(self, capsys):
        # v = 2 is in range for every n >= 1, so only n can be at fault
        for command in ("type", "bound", "generate"):
            code, out, err = run([command, "--N", "0", "--v", "2"], capsys)
            assert (code, out, err) == (2, "", "error: need n >= 1, got 0\n"), command

    def test_generate_impossible_is_usage_error(self, capsys):
        code, _, err = run(["generate", "--N", "3", "--v", "5"], capsys)
        assert code == 2
        assert "error" in err

    def test_no_symbol_count_fits_one_d_barred_row(self, capsys):
        # d-barred classes are nonempty, so one row admits at most v = 1: the
        # message names that limit, not the empty range 2..1
        for variant in ("bar1-1", "bar1-bar1"):
            code, out, err = run(["type", "--N", "1", "--v", "2", "--variant", variant], capsys)
            assert (code, out) == (2, ""), variant
            assert err == (f"error: v must be at least 2 but is at most 1 for variant {variant}; "
                           "got v=2, n=1\n"), variant


class TestVerify:
    def test_pipeline_round_trip(self, tmp_path, capsys, monkeypatch):
        arr_file = tmp_path / "arr.txt"
        code, _, _ = run(["generate", "--N", "5", "--v", "3", "--out", str(arr_file)], capsys)
        assert code == 0
        code, out, _ = run(["verify", str(arr_file), "--v", "3", "--variant", "11"], capsys)
        assert code == 0
        assert out == "ok\n"

    def test_reads_stdin(self, capsys, monkeypatch):
        text = "2 2 2\n0 0\n1 1\n"
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        code, out, _ = run(["verify", "-"], capsys)
        assert code == 1
        assert "two classes with the same row set" in out
        assert "(column 1, symbol 0)" in out and "(column 2, symbol 0)" in out

    def test_trailing_rows_rejected(self, tmp_path, capsys):
        arr_file = tmp_path / "arr.txt"
        arr_file.write_text("2 1 2\n0\n1\n9 9 9\n")
        code, out, err = run(["verify", str(arr_file)], capsys)
        assert code == 2 and out == ""
        assert "after the 2 declared rows" in err

    def test_symbol_count_cross_check(self, tmp_path, capsys):
        arr_file = tmp_path / "arr.txt"
        arr_file.write_text("2 1 2\n0\n1\n")
        code, _, err = run(["verify", str(arr_file), "--v", "3"], capsys)
        assert code == 2

    def test_other_checks(self, tmp_path, capsys):
        arr_file = tmp_path / "arr.txt"
        arr_file.write_text("4 2 2\n0 0\n0 1\n1 0\n1 1\n")
        for check in ("la", "ca2", "da11"):
            code, out, _ = run(["verify", str(arr_file), "--check", check], capsys)
            assert code == 0 and out == "ok\n"

    def test_every_generated_array_verifies(self, tmp_path, capsys):
        for n, v, variant in [(4, 2, "11"), (5, 3, "bar1-1"), (6, 3, "1-bar1"), (5, 4, "bar1-bar1")]:
            arr_file = tmp_path / f"arr-{n}-{v}-{variant}.txt"
            code, _, _ = run(
                ["generate", "--N", str(n), "--v", str(v), "--variant", variant,
                 "--out", str(arr_file)],
                capsys,
            )
            assert code == 0
            code, out, _ = run(["verify", str(arr_file), "--variant", variant], capsys)
            assert code == 0


class TestMalformedDocuments:
    CASES = [
        ("verify", '{"n": 2, "v": 2}'),
        ("verify", '{"n": 2, "k": 1, "v": 2, "rows": 5}'),
        ("verify", '{"n": 2, "k": 1, "v": 2, "rows": [[0], [1.5]]}'),
        ("verify", '{"n": "2", "k": 1, "v": 2, "rows": [[0], [1]]}'),
        ("verify", '{"n": 2, "k": 1, "v": 2, "rows": [[0], [1]]'),
        ("realize", '{"n": 3, "v": 2}'),
        ("realize", '{"n": 3, "v": 2, "shapes": [{"count": 1}]}'),
        ("realize", '{"n": 3, "v": 2, "shapes": [{"count": 1, "entries": "12"}]}'),
        ("realize", '{"n": 3, "v": 2, "shapes": {"count": 1, "entries": [1, 2]}}'),
        ("realize", '{"n": null, "v": 2, "shapes": []}'),
        ("realize", "N 4 9\nv 2 x\n1 x 2 2\n"),
        ("realize", "N 4\nv 2 x\n1 x 2 2\n"),
        ("verify", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        ("realize", '{"n": ' + "[" * 100_000 + "]" * 100_000 + "}"),
        ("realize", '{"n": 3, "v": 2, "shapes": [{"count": 1, "entries": []}]}'),
    ]

    def test_usage_error_without_traceback(self, tmp_path, capsys):
        doc = tmp_path / "doc.json"
        for command, text in self.CASES:
            doc.write_text(text)
            code, _, err = run([command, str(doc)], capsys)
            assert code == 2, (command, text)
            assert err.startswith("error: ") and "Traceback" not in err, (command, text)


class TestStrictNumbers:
    """Text documents take ASCII decimal digits only, although int() would take more."""

    CASES = [
        ("verify", "1 2 2\n0 +1\n", "'+1'"),  # int() reads 1: a valid array
        ("verify", "1 2 2\n0 1_0\n", "'1_0'"),  # int() reads 10
        ("verify", "-1 2 2\n", "'-1'"),  # int() reads -1 rows
        ("verify", "1 2 2\n0 \u0661\n", "'\u0661'"),  # int() reads the Arabic-Indic 1
        ("verify", "1 +2 2\n0 1\n", "'+2'"),
        ("realize", "N +4\nv 2\n1 x 2 2\n", "'+4'"),
        ("realize", "N 4\nv 2\n1 x 2 +2\n", "'+2'"),
        ("realize", "N 4\nv 2\n1_0 x 2 2\n", "'1_0'"),
    ]

    def test_usage_error_names_the_token(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        for command, text, token in self.CASES:
            doc.write_text(text, encoding="utf-8")
            code, out, err = run([command, str(doc)], capsys)
            assert (code, out) == (2, ""), (command, text)
            assert err == f"error: expected a decimal number, got {token}\n", (command, text)

    def test_leading_zeros_and_padding_still_parse(self):
        assert parse_array("02 2 2\n 0  01 \n1\t00\n").rows == ((0, 1), (1, 0))
        assert parse_type("N 4\nv 2\n1  x 2 02\n") == parse_type("N 4\nv 2\n1 x 2 2\n")


class TestExitCodes:
    """The exit-code contract: 0 ok, 1 violation, 2 usage, 3 cap, never a traceback."""

    CASES = [
        (["bound", "--N", "0", "--v", "3"], 2),
        (["type", "--N", "0", "--v", "3"], 2),
        (["generate", "--N", "0", "--v", "3"], 2),
        (["oracle", "--N", "0", "--v", "3"], 2),
        (["bound", "--N", "5", "--v", "1"], 2),
        (["type", "--N", "5", "--v", "1"], 2),
        (["generate", "--N", "5", "--v", "1"], 2),
        (["oracle", "--N", "3", "--v", "1"], 2),
        (["table", "--n-min", "0", "--n-max", "3"], 2),
        (["table", "--n-min", "5", "--n-max", "3"], 2),
        (["realize", "N 4\nv 2\n2 x 0 4\n"], 2),  # inadmissible: two empty blocks
        (["realize", "N 4\nv 3\n1 x 2 2\n"], 2),  # 2 blocks in a 3-type
        (["realize", "N 4\nv 2\n1 x 1 1 2\n"], 2),  # 3 blocks in a 2-type
        (["generate", "--N", "17", "--v", "3"], 3),
        (["realize", "N 17\nv 2\n1 x 8 9\n"], 3),
        (["oracle", "--N", "6", "--v", "2"], 3),
        (["verify", "2 2 2\n0 0\n1 1\n"], 1),  # column 2 duplicates column 1
        (["verify", "2 2 99999999999999999999\n0 1\n1 0\n"], 2),  # v above n + 1
        (["verify", '{"n": 2, "k": 2, "v": 4, "rows": [[0, 1], [1, 0]]}'], 2),  # v = n + 2
    ]

    def test_every_subcommand(self, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        for argv, want in self.CASES:
            if argv[0] in ("realize", "verify"):
                doc.write_text(argv[1])
                argv = [argv[0], str(doc)]
            code, out, err = run(argv, capsys)
            assert code == want, argv
            assert "Traceback" not in out + err, argv
            if code == 1:  # a verdict, not an error: it goes to stdout
                assert out.startswith("violated: ") and err == "", argv
            elif code:
                assert err.startswith("error: "), argv


class TestOracle:
    def test_text_output(self, capsys):
        code, out, _ = run(["oracle", "--N", "3", "--v", "2"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "max-k 4"
        assert lines[1] == "1: - 1,2,3"

    def test_json_output(self, capsys):
        code, out, _ = run(["oracle", "--N", "3", "--v", "2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["max_k"] == 4
        assert len(doc["witness"]) == 4

    def test_cap_exit_code(self, capsys):
        code, _, err = run(["oracle", "--N", "6", "--v", "2"], capsys)
        assert code == 3
        assert "--cap-n" in err


class TestSelftest:
    def test_passes(self, capsys):
        code, out, _ = run(["selftest"], capsys)
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 5
        assert all(ln.endswith(": PASS") for ln in lines)


class TestHelp:
    def test_help_exits_zero(self, capsys):
        code, _, _ = run(["--help"], capsys)
        assert code == 0

    def test_no_command_is_usage_error(self, capsys):
        code, _, _ = run([], capsys)
        assert code == 2
