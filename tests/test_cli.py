import json

from zlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_lattice_command(capsys):
    code, out, _err = run(capsys, "lattice", "U(3)+2A2", "--show", "gram,invariants,discr")
    assert code == 0
    assert "rank 6" in out
    assert "r = 6  r2 = 0" in out
    assert "(p,q) = (1,3)" in out
    assert "Brown invariant" in out


def test_lattice_even_with_odd_half(capsys):
    code, out, _err = run(capsys, "lattice", "U(4)+<4>", "--show", "invariants")
    assert code == 0
    assert "stability certificate: small-rank:divide-2:criterion" in out


def test_lattice_invariants_report_why_they_are_missing(capsys):
    code, out, _err = run(capsys, "lattice", "<3>+A2", "--show", "invariants")
    assert code == 0
    assert "  lattice is not even" in out and "elementary" not in out
    code, out, _err = run(capsys, "lattice", "U+<-4>", "--show", "invariants")
    assert code == 0
    assert "  discriminant is not elementary at 2 and 3" in out


def test_lattice_ascii_flag(capsys):
    code, out, _ = run(capsys, "--ascii", "lattice", "<2>+3<-6>", "--show", "discr")
    assert code == 0
    assert "q(" in out and "⟨" not in out


def test_lattice_brown_of_a_large_p_part(capsys):
    # the 5-part of the discriminant group has order 5^9
    code, out, _err = run(capsys, "lattice", "U+<-3906250>+<-6>", "--show", "discr")
    assert code == 0
    assert "Brown invariant: 6" in out


def test_lattice_discr_lists_orders_ascending(capsys):
    # the blocks <-4> and <2> give the 2-part generators of orders 4 and 2
    code, out, _err = run(capsys, "lattice", "<-4>+<2>+U", "--show", "discr")
    assert code == 0
    assert "|discr| = 8   form: Z/2+Z/4" in out


def test_lattice_discr_output_is_pinned(capsys):
    # byte for byte: a sum of <-2/3>, an elementary 2- and 3-part, a non-elementary 2-part
    pinned = {
        "6A2": "lattice 6A2 (rank 12)\n"
               "  |discr| = 729   form: ⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩\n"
               "  Brown invariant: 4\n",
        "U(3)+3A2+2A2(2)": "lattice U(3)+3A2+2A2(2) (rank 12)\n"
                           "  |discr| = 34992   form: u2+u2+⟨2/3⟩+"
                           "⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩+⟨-2/3⟩\n"
                           "  Brown invariant: 6\n",
        "<-32768>+U": "lattice ⟨-32768⟩+U (rank 3)\n"
                      "  |discr| = 32768   form: Z/32768\n"
                      "  Brown invariant: 7\n",
    }
    for expr, text in pinned.items():
        code, out, _err = run(capsys, "lattice", expr, "--show", "discr")
        assert (code, out) == (0, text)


def test_lattice_bad_expression(capsys):
    code, _out, err = run(capsys, "lattice", "A0")
    assert code == 2
    assert "position" in err


def test_lattice_numbers_are_ascii_digits(capsys):
    for expr in ("\u00b2A2", "A\u0663"):
        code, _out, err = run(capsys, "lattice", expr)
        assert code == 2
        assert err.startswith("expression error:")


def test_lattice_bad_show_field(capsys):
    code, _out, err = run(capsys, "lattice", "U", "--show", "gram,nonsense")
    assert code == 2


def test_glue_auto(capsys):
    code, out, _ = run(capsys, "glue", "--l1", "<2>", "--l2", "<-2>")
    assert code == 0
    assert "det -1" in out
    assert "signature (1,1)" in out


def test_glue_auto_reports_no_anti_isomorphism(capsys):
    code, _out, err = run(capsys, "glue", "--l1", "5A2", "--l2", "5A2")
    assert code == 1
    assert "no full elementary anti-isomorphism" in err


def test_pair_lookup(capsys):
    code, out, _ = run(capsys, "pair", "--t-plus", "U")
    assert code == 0
    rec = json.loads(out)
    assert rec["tableRef"] == "8B:1"
    assert rec["tPlus"]["expr"] == "U"
    assert rec["reversible"] is True


def test_pair_lookup_by_isomorphic_presentation(capsys):
    # <6>+A2 = U(3)+A1 in the genus; both resolve to the same census pair
    code, out, _ = run(capsys, "pair", "--t-plus", "<6>+A2")
    assert code == 0
    assert json.loads(out)["tableRef"] == "8C:8"


def test_pair_outside_census_names_the_reason(capsys):
    code, _out, err = run(capsys, "pair", "--t-plus", "<3>+A2")
    assert code == 2
    assert err == "the lattice is outside the census (lattice is not even)\n"
    code, _out, err = run(capsys, "pair", "--t-plus", "U+<-4>")
    assert code == 2
    assert err == "the lattice is outside the census (discriminant is not elementary at 2 and 3)\n"


def test_partner_lookup(capsys):
    code, out, _ = run(capsys, "partner", "--row", "8B:1")
    assert code == 0
    rec = json.loads(out)
    assert rec["partner"]["tableRef"] == "8C:1"
    assert rec["id"]["code"] == "3_1+1<1>"
    assert rec["id"]["type"] == "I"
    assert rec["id"]["chi"] == 1


def test_partner_of_irreversible(capsys):
    code, out, _ = run(capsys, "partner", "--row", "8A:1")
    assert code == 0
    rec = json.loads(out)
    assert rec["partner"] is None
    assert rec["id"]["code"] == "1<4>"


def test_partner_bad_row(capsys):
    code, _out, err = run(capsys, "partner", "--row", "9Z:1")
    assert code == 2
    assert err == "no census pair with table ref '9Z:1'\n"  # the KeyError's text, not its repr


def test_key_error_reaches_the_user_unquoted(capsys, monkeypatch):
    from zlat import tables

    def missing(*_args):
        raise KeyError("no table 'X'")

    monkeypatch.setattr(tables, "emit_table", missing)
    code, _out, err = run(capsys, "tables", "--id", "8A")
    assert (code, err) == (1, "error: no table 'X'\n")


def test_tables_markdown(capsys):
    code, out, _ = run(capsys, "tables", "--id", "8A")
    assert code == 0
    assert out.count("\n") == 8  # header + rule + 6 rows
    code, out, _ = run(capsys, "tables", "--id", "1B")
    assert out.count("\n") == 33


def test_tables_json_roundtrip(capsys):
    code, out, _ = run(capsys, "tables", "--id", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["table"] == "4"
    total = sum(len(r["pq"]) * len(r["delta2"]) for r in payload["rows"])
    assert total == 68


def test_tables_formats_have_same_rows(capsys):
    _c, md, _ = run(capsys, "--ascii", "tables", "--id", "8B")
    _c, csv, _ = run(capsys, "--ascii", "tables", "--id", "8B", "--format", "csv")
    assert md.count("\n") - 2 == csv.count("\n") - 1 == 31


def test_tables_diff_golden(capsys):
    code, out, _ = run(capsys, "tables", "--id", "8A", "--diff-golden")
    assert code == 0
    assert "matches" in out
    code, out, _ = run(capsys, "tables", "--id", "7B", "--diff-golden")
    assert code == 0  # only documented discrepancies
    assert "documented" in out and "UNDOCUMENTED" not in out


def test_tables_unknown_id(capsys):
    code, _out, _err = run(capsys, "tables", "--id", "9X")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "stability")
    assert code == 0
    assert "PASS stability:table5-all-stable" in out
    assert "FAIL" not in out
