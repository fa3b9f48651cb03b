"""CLI surface: subcommand output schema, determinism, exit codes, and no
files read or written outside the package."""

import atexit
import contextlib
import gc
import io
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

import k3mahler
from k3mahler import cli, dirichlet, eisenstein, lfunctions, mahler, mwsections as mw, pointcount
from k3mahler.bigreal import BigReal
from k3mahler.cli import COMMANDS, VERIFY_KS, UsageError, _parse, main
from k3mahler.surfaces import SURFACES
from k3mahler.mwsections import NonsquareWitness, NontorsionWitness
from k3mahler.verify import _subchecks, identity_rhs

from argparse_oracle import build_parser
from grouplaw import psigma
from test_mwsections import replay_nonsquare, replay_witness

SUBCOMMAND_KEYS = {"input", "value", "error_bound", "provenance"}
# the timed stages of `verify --k`
STAGES = {0: ["lhs", "rhs"]}
STAGES[3] = STAGES[6] = STAGES[0] + ["lattice", "ek", "ap"]
STAGES[18] = STAGES[3] + ["epstein", "section_import", "on_curve", "nontorsion", "halving",
                          "zero_intersection", "height"]


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


class TestSchemas:
    def test_subcommand_schema(self, capsys):
        for argv in (["lattice", "--k", "18", "--json"],
                     ["ap", "--k", "6", "--pmax", "13", "--json"],
                     ["coeffs", "--k", "6", "--nmax", "8", "--json"],
                     ["lvalue", "--k", "3", "--json"],
                     ["mahler", "--k", "6", "--json"],
                     ["mahler", "--k", "6", "--method", "bertin", "--json"]):
            code, out = run(capsys, argv)
            assert code == 0
            doc = json.loads(out)
            assert set(doc) == SUBCOMMAND_KEYS, argv

    def test_bertin_input_names_prec(self, capsys):
        # the series and its bound depend on --prec, so the input records it
        for prec in ("64", "128"):
            code, out = run(capsys, ["mahler", "--k", "6", "--method", "bertin",
                                     "--prec", prec, "--json"])
            assert code == 0
            assert json.loads(out)["input"] == {"k": 6, "method": "bertin",
                                                "prec": int(prec)}

    def test_mahler_k_past_float64_integers(self, capsys):
        # k prints as an int only below 2^53, not as 1e200's binary rounding
        code, out = run(capsys, ["mahler", "--k", "1e200", "--json"])
        assert code == 0 and json.loads(out)["input"]["k"] == 1e200
        assert run(capsys, ["mahler", "--k", "1e200"])[1].startswith("m(P_1e+200) = ")

    def test_verify_report_schema(self, capsys):
        code, out = run(capsys, ["verify", "--k", "0", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert {"identity", "lhs", "rhs", "abs_diff", "tolerance", "pass",
                "subchecks", "k", "prec", "timings"} <= set(doc)
        assert {"value", "method", "error_bound", "bound_kind"} <= set(doc["lhs"])
        assert doc["lhs"]["bound_kind"] == "estimate"
        assert doc["rhs"]["bound_kind"] == "rigorous"
        assert doc["pass"] is True

    @pytest.mark.parametrize("k", VERIFY_KS)
    def test_verify_stage_timings(self, capsys, k18_report, k):
        # the record selects the stages: k = 0 runs the two identity sides
        # only, a disc adds the lattice, EK and A_p stages, the d3 term beside
        # the L-value the Epstein stage, and the height the section stages
        doc = k18_report[1] if k == 18 else \
            json.loads(run(capsys, ["verify", "--k", str(k), "--json"])[1])
        assert set(doc["timings"]) == {f"{s}_s" for s in STAGES[k]} | {"total_s"}
        assert all(t >= 0 for t in doc["timings"].values())
        assert sum(doc["timings"][f"{s}_s"] for s in STAGES[k]) \
            <= doc["timings"]["total_s"] + 1e-3

    def test_verify_subchecks_schema(self, capsys):
        code, out = run(capsys, ["verify", "--k", "6", "--json", "--pmax", "13"])
        assert code == 0
        doc = json.loads(out)
        assert doc["pass"] is True
        names = [c["name"] for c in doc["subchecks"]]
        assert "eisenstein-kronecker-series" in names
        assert "A_p-vs-newform-level-24" in names
        for c in doc["subchecks"]:
            assert {"name", "pass", "provenance"} <= set(c)


class TestPrintedBounds:
    def test_bound_covers_the_float64_rounding(self, capsys, lvalue_256):
        # the printed float64 value is within the printed bound of the
        # 256-bit value
        for k in (3, 6, 18):
            for argv, exact in (
                    (["mahler", "--method", "bertin"], eisenstein.bertin_series_for_k(k, 256)),
                    (["lvalue"], lvalue_256[SURFACES[k].disc])):
                code, out = run(capsys, argv + ["--k", str(k), "--json"])
                assert code == 0
                doc = json.loads(out)
                with mp.workprec(256):
                    assert abs(mp.mpf(doc["value"]) - exact.value) <= doc["error_bound"], \
                        (argv, k)


class TestDeterminism:
    def test_byte_identical_reruns(self, capsys):
        for argv in (["mahler", "--k", "6", "--json"],
                     ["mahler", "--k", "6", "--method", "bertin", "--json"]):
            _, out1 = run(capsys, argv)
            _, out2 = run(capsys, argv)
            assert out1 == out2, argv

    def test_verify_report_equal_outside_timings(self, capsys, k18_report):
        def report(argv):
            code, out = run(capsys, argv)
            assert code == 0, argv
            doc = json.loads(out)
            del doc["timings"]
            return doc
        for argv in (["verify", "--k", "0", "--json"],
                     ["verify", "--k", "6", "--pmax", "13", "--json"]):
            assert report(argv) == report(argv), argv
        # the module's k = 18 run is the first of the two
        first = {key: v for key, v in k18_report[1].items() if key != "timings"}
        assert first == report(["verify", "--k", "18", "--json"])


# argv lists that exit 2: the parser rejects them, or no route serves them
REJECTED = [
    ["mahler", "--method", "nosuch", "--k", "6"],
    ["verify"],  # --k missing
    ["lvalue", "--k", "3", "--n-terms", "10"],
    # the Monte Carlo route is gone, with its options
    ["mahler", "--k", "6", "--method", "mc"],
    ["mahler", "--k", "6", "--samples", "1000"],
    ["mahler", "--k", "6", "--seed", "1"],
    ["verify", "--k", "6", "--box", "8"],
    # no box size: the EK series sums rows to a working precision
    ["verify", "--k", "6", "--box", "256"],
    ["mahler", "--k", "6", "--method", "bertin", "--box", "256"],
    ["verify", "--k", "6", "--tol", "0"],
    ["coeffs", "--k", "6", "--nmax", "1"],
    ["ap", "--k", "6", "--pmax", "-5"],
    # the L-value and d3 run at --prec bits; below float64's 53 they cannot
    # give a float64 result
    ["lvalue", "--k", "3", "--prec", "0"],
    # only verify, lvalue and mahler's series run at a precision; the
    # quadrature runs in float64
    ["mahler", "--k", "6", "--prec", "200"],
    ["ap", "--k", "6", "--prec", "64"],
    ["lattice", "--k", "6", "--prec", "64"],
    ["coeffs", "--k", "6", "--prec", "64"],
    # no cache, worker or config options
    ["ap", "--k", "6", "--cache-dir", ""],
    ["ap", "--k", "6", "--workers", "2"],
    ["--config", "k3mahler.cfg", "ap", "--k", "6"],
    # the direct L-value sum and its term count are gone
    ["verify", "--k", "6", "--n-terms", "1000"],
    # no tabulated CM point, integral or not
    ["mahler", "--k", "5", "--method", "bertin"],
    ["mahler", "--k", "5.5", "--method", "bertin"],
    # a non-finite k or tol would print nan or pass vacuously
    ["mahler", "--k", "nan"],
    ["mahler", "--k", "inf"],
    ["mahler", "--k", "-inf", "--json"],
    ["verify", "--k", "6", "--tol", "inf"],
    ["verify", "--k", "3", "--tol", "nan", "--json"],
    ["mahler", "--k", "6", "--tol", "inf"],
]


class TestExitCodes:
    def test_usage_error_is_2(self, capsys):
        for argv in REJECTED:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()

    def test_negative_values_in_exponent_notation(self, capsys):
        # a value is read whatever its first character: m(P_-k) = m(P_k)
        code, out = run(capsys, ["mahler", "--k", "-1.5e1", "--json"])
        assert code == 0 and json.loads(out)["input"]["k"] == -15
        assert json.loads(out)["value"] == json.loads(run(capsys, ["mahler", "--k", "15",
                                                                   "--json"])[1])["value"]
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k", "6", "--tol", "-1e-8"])
        assert exc.value.code == 2 and "must be > 0" in capsys.readouterr().err

    def test_usage_error_output(self, capsys):
        # usage and the error on stderr, nothing on stdout
        with pytest.raises(SystemExit) as exc:
            main(["ap", "--k", "6", "--pm", "13"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: k3mahler ")
        assert captured.err.splitlines()[-1] == "k3mahler: error: unrecognized argument: --pm"

    def test_argv_defaults_to_the_command_line(self, capsys, monkeypatch):
        argv = ["ap", "--k", "6", "--pmax", "13", "--json"]
        monkeypatch.setattr(sys, "argv", ["k3mahler", *argv])
        code = main()
        assert code == 0 and capsys.readouterr().out == run(capsys, argv)[1]

    def test_pass_is_zero(self, capsys):
        code, _ = run(capsys, ["verify", "--k", "0"])
        assert code == 0

    def test_verification_failure_is_one(self, capsys):
        # an unreachable tolerance fails the identity gate
        code = main(["verify", "--k", "0", "--tol", "1e-30"])
        capsys.readouterr()
        assert code == 1

    @pytest.mark.parametrize("k", VERIFY_KS)
    def test_tight_tol_judged_by_the_gate(self, capsys, k):
        # |lhs - rhs| + both bounds is below 2e-15 at every k; the quadrature
        # does not refuse the request against a fraction of tol
        code, out = run(capsys, ["verify", "--k", str(k), "--tol", "3e-15", "--json"])
        doc = json.loads(out)
        assert code == 0 and doc["pass"] is True and doc["tolerance"] == 3e-15
        assert doc["abs_diff"] + doc["lhs"]["error_bound"] + doc["rhs"]["error_bound"] <= 3e-15

    def test_unreachable_tol_prints_a_fail_report(self, capsys):
        code, out = run(capsys, ["verify", "--k", "6", "--tol", "1e-300", "--json"])
        doc = json.loads(out)
        assert code == 1 and doc["pass"] is False and doc["tolerance"] == 1e-300
        assert all(c["pass"] for c in doc["subchecks"])  # only the identity gate fails

    def test_bertin_held_to_tol(self, capsys):
        # the series' exact bound, 8.8e-18 at 53 bits, meets --tol as the
        # quadrature's does
        code = main(["mahler", "--k", "6", "--method", "bertin", "--tol", "1e-300",
                     "--prec", "53"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "requested abs tol 1e-300" in captured.err

    def test_arithmetic_error_is_one(self, capsys, monkeypatch):
        # the disc -24 series read as level 48 fails the functional-equation
        # guard with an ArithmeticError: exit 1 and the message, no traceback
        monkeypatch.setitem(lfunctions.FORM_SERIES, -24,
                            lfunctions.FORM_SERIES[-24]._replace(disc=-48))
        code = main(["lvalue", "--k", "6"])
        captured = capsys.readouterr()
        assert code == 1 and captured.err.startswith("error: ")

    def test_nan_bound_fails(self, capsys, monkeypatch):
        # a NaN integrand gives a NaN bound, which no tolerance accepts
        monkeypatch.setattr(mahler, "_period_integrand", lambda *args: float("nan"))
        code = main(["verify", "--k", "0", "--tol", "1e-4", "--json"])
        captured = capsys.readouterr()
        assert code == 1 and "achieved nan" in captured.err

    def test_identity_gate_counts_the_bounds(self, capsys, monkeypatch):
        # |lhs - rhs| ~ 1e-16 is far under tol 1e-5, but an L-value bound of
        # 4.9e-3 (what a 1000-term direct sum carries) leaves the identity
        # unestablished
        smoothed = lfunctions.smoothed_lvalue

        def wide(series, prec):
            v = smoothed(series, prec)
            return BigReal.with_bound(v.value, Fraction("4.9e-3"), v.prec)
        monkeypatch.setattr(lfunctions, "smoothed_lvalue", wide)
        code, out = run(capsys, ["verify", "--k", "6", "--pmax", "13"])
        assert code == 1
        assert out.splitlines()[0].endswith("-> FAIL")

    def test_ek_gate_uses_its_bound(self, capsys, monkeypatch):
        # a series value 5e-5 off with a claimed bound of 1e-9 must fail,
        # although 5e-5 is far below the identity tolerance
        def off_by_5e5(k, prec):
            m6 = 1.6733893029701967  # m(P_6), as the EK series gives it
            return BigReal.with_bound(m6 + 5e-5, 1e-9)
        monkeypatch.setattr(eisenstein, "bertin_series_for_k", off_by_5e5)
        code, out = run(capsys, ["verify", "--k", "6", "--json", "--pmax", "13",
                                 "--tol", "1e-4"])
        assert code == 1
        ek = {c["name"]: c for c in json.loads(out)["subchecks"]}[
            "eisenstein-kronecker-series"]
        assert ek["pass"] is False
        assert ek["diff"] > 4e-5 and ek["error_bound"] < 1e-7

    def test_ap_checked_past_the_embedded_table(self, capsys, monkeypatch):
        # the embedded table stops at 31; p = 37 is checked by the form series
        scan = pointcount.ap_scan

        def one_wrong(k, pmax):
            aps = dict(scan(k, pmax))
            aps[37] += 1
            return aps
        monkeypatch.setattr(pointcount, "ap_scan", one_wrong)
        code, out = run(capsys, ["verify", "--k", "6", "--pmax", "40", "--json"])
        assert code == 1
        ap = {c["name"]: c for c in json.loads(out)["subchecks"]}["A_p-vs-newform-level-24"]
        assert ap["pass"] is False and list(ap["mismatches"]) == ["37"]

    def test_ap_with_no_primes(self, capsys):
        code, out = run(capsys, ["ap", "--k", "3", "--pmax", "0", "--json"])
        assert code == 0 and json.loads(out)["value"] == {}

    def test_no_primes_checked_is_failure(self, capsys):
        code, out = run(capsys, ["verify", "--k", "3", "--pmax", "1", "--json"])
        assert code == 1
        sub = {c["name"]: c for c in json.loads(out)["subchecks"]}
        ap = sub["A_p-vs-newform-level-15"]
        assert ap["primes"] == [] and ap["pass"] is False


# the CLI's traffic: the README's examples, the benchmark's request kinds
# (perfbench/run.py), the rejected argv lists and the grammar's corners
README_EXAMPLES = [line.partition("#")[0].split()[1:] for line in
                   (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
                   if line.startswith("k3mahler ")]
BENCH_KINDS = [*(["verify", "--k", k, "--json"] for k in ("0", "3", "6", "18")),
               *(["ap", "--k", k, "--pmax", "1500", "--json"] for k in ("3", "6", "18"))]
GRAMMAR = [["verify", "--k=0"], ["mahler", "--k=-2", "--method=bertin", "--tol=1e-3"],
           ["ap", "--k", "6", "--pmax", "13", "--k", "3"], ["--json", "verify", "--k", "3"],
           ["verify", "--k"], ["verify", "--k", "abc"], ["verify", "--k", "3.0"], [],
           ["nosuch", "--k", "3"], ["verify", "--k", "3", "extra"], ["height", "--json=1"],
           ["mahler", "--k", "-15", "--json"], ["mahler", "--method", "bertin", "--k", "18"]]


def parsed(parse, argv):
    """The option values parse(argv) gives, or the exit code 2 of a rejection."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except (SystemExit, UsageError) as exc:
            return getattr(exc, "code", 2)


class TestOptionTable:
    @pytest.mark.parametrize("argv", README_EXAMPLES + BENCH_KINDS + REJECTED + GRAMMAR,
                             ids=lambda argv: " ".join(argv) or "no-command")
    def test_agrees_with_the_argparse_oracle(self, argv):
        # both accept with equal option values and handler, or both exit 2
        assert parsed(_parse, argv) == parsed(build_parser().parse_args, argv)

    def test_examples_and_kinds_are_accepted(self):
        # so the oracle's agreement on them is not two rejections
        assert len(README_EXAMPLES) >= 9
        assert all(isinstance(parsed(_parse, argv), dict) for argv in README_EXAMPLES + BENCH_KINDS)

    def test_the_intended_differences(self):
        # argparse takes an option's unique prefix; the table takes exact names
        argv = ["ap", "--k", "6", "--pm", "13"]
        assert parsed(build_parser().parse_args, argv)["pmax"] == 13 and parsed(_parse, argv) == 2
        # argparse reads a negative value in exponent notation as an option;
        # the table reads a value whatever its first character
        for argv in (["mahler", "--k", "-1.5e1", "--json"], ["mahler", "--k", "-1e3"]):
            assert parsed(build_parser().parse_args, argv) == 2
            assert parsed(_parse, argv)["k"] == float(argv[2])

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_lists_the_table(self, capsys, command):
        names = COMMANDS[command][1] if command else COMMANDS
        for flag in ("-h", "--help"):
            assert main([command, flag] if command else [flag]) == 0
            out = capsys.readouterr().out
            assert out.startswith("usage: k3mahler ")
            listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
            assert set(names) <= listed, set(names) - listed


@pytest.fixture(scope="module")
def k18_report(k18):
    """One `verify --k 18 --json` run: exit code, report, and every (point,
    curve) the exact on-curve check saw."""
    checked = []
    on_curve = mw.verify_on_curve

    def spy(P, E):
        checked.append((P, E))
        return on_curve(P, E)
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(out):
        patch.setattr(mw, "verify_on_curve", spy)
        code = main(["verify", "--k", "18", "--json"])
    return code, json.loads(out.getvalue()), checked


class TestSectionReport:
    def test_k18_nontorsion_witness_replays(self, k18_report):
        code, doc, _ = k18_report
        assert code == 0
        sub = {c["name"]: c for c in doc["subchecks"]}
        nt = sub["section-nontorsion"]
        assert nt["pass"] is True
        assert nt["provenance"] == "specialization at sigma=t, reduction mod p"
        w = nt["witness"]
        assert w == {"sigma": 1, "p": 37, "sqrt_m3_mod_p": 16, "order": 14}
        wit = NontorsionWitness(**w)
        # p_sigma needs sqrt(-3): a split prime, at which it maps to w
        assert wit.order > SURFACES[18].torsion
        assert wit.p % 3 == 1 and (wit.sqrt_m3_mod_p ** 2 + 3) % wit.p == 0
        # p_sigma itself, on the family's own curve
        order = replay_witness(psigma(), mw.family_curve(18), wit)
        assert order == wit.order

    def test_k18_witnesses_are_the_certificates_records(self, k18_report):
        # the report's witness fields are the namedtuples' own, so each
        # witness rebuilds from its report entry with **w and back
        assert NontorsionWitness._fields == ("sigma", "p", "sqrt_m3_mod_p", "order")
        assert NonsquareWitness._fields == ("sigma", "p", "sqrt_m3_mod_p")
        sub = {c["name"]: c for c in k18_report[1]["subchecks"]}
        nt = sub["section-nontorsion"]["witness"]
        assert NontorsionWitness(**nt)._asdict() == nt
        wits = sub["halving-obstruction"]["witness"].values()
        assert len(wits) == 4 and all(NonsquareWitness(**w)._asdict() == w for w in wits)

    def test_k18_nontorsion_bound_is_the_records_torsion(self):
        # the image must beat the record's torsion order: with 14 recorded,
        # p_sigma's order-14 image at p = 37 proves nothing, and the search
        # goes on to a larger order
        surf = SURFACES[18]._replace(torsion=14)
        exact, _, d3_term = identity_rhs(surf, 128)
        sub = {c["name"]: c for _, checks in _subchecks(surf, 128, 31, exact, d3_term)
               for c in checks}
        nt = sub["section-nontorsion"]
        assert nt["pass"] is True and nt["witness"]["order"] > 14
        wit = NontorsionWitness(**nt["witness"])
        assert replay_witness(psigma(), mw.family_curve(18), wit) == wit.order

    def test_k18_halving_witnesses_replay(self, k18_report, k18):
        # Euler's criterion at each (t, p, w), on functions built without the
        # search: the printed q+ and q- (q- is 4 times the q- searched)
        sub = {c["name"]: c for c in k18_report[1]["subchecks"]}["halving-obstruction"]
        hd, Eb = k18["halving"], k18["Eb"]
        claims = {"a^2-4b": Eb.a2 * Eb.a2 - 4 * Eb.a4, "x(Pb)": k18["ps"].x,
                  "q+": hd["qplus"], "q-": hd["qminus"]}
        assert sub["pass"] is True and set(sub["witness"]) == set(claims)
        for name, w in sub["witness"].items():
            assert replay_nonsquare(claims[name], **w)

    def test_k18_halving_fails_without_a_witness(self, capsys, monkeypatch):
        # cut to sigma = 1, p = 7, the search finds none for a^2 - 4b: no fallback
        monkeypatch.setattr(mw, "NONTORSION_SIGMAS", range(1, 2))
        monkeypatch.setattr(mw, "_split_primes", lambda: [(7, 2)])
        code, out = run(capsys, ["verify", "--k", "18", "--json"])
        sub = {c["name"]: c for c in json.loads(out)["subchecks"]}["halving-obstruction"]
        assert code == 1 and sub["pass"] is False and sub["witness"]["a^2-4b"] is None

    def test_k18_changed_section_coefficient_fails(self, capsys, monkeypatch):
        # 45 - 27 sqrt(-3) -> 45 - 26 sqrt(-3) in a factor of y: the record's
        # section is rebuilt, leaves the curve, and no later section stage runs
        x, (const, *factors) = SURFACES[18].section
        f2 = factors[4]
        assert f2[0] == (45, -27)
        factors[4] = ((45, -26), *f2[1:])
        monkeypatch.setitem(SURFACES, 18, SURFACES[18]._replace(
            section=(x, (const, *factors))))
        code, out = run(capsys, ["verify", "--k", "18", "--json"])
        doc = json.loads(out)
        assert code == 1 and doc["pass"] is False
        assert doc["subchecks"][-1]["name"] == "infinite-section-on-curve"
        assert doc["subchecks"][-1]["pass"] is False
        assert set(doc["timings"]) == {f"{st}_s" for st in STAGES[18][:-4]} | {"total_s"}

    def test_k18_halving_checks_r_squared(self, capsys, monkeypatch):
        # with 2r for r every q keeps a witness: only x(Q) = r^2 catches it
        (const, *factors), den = SURFACES[18].halving_root
        monkeypatch.setitem(SURFACES, 18, SURFACES[18]._replace(
            halving_root=((2 * const, *factors), den)))
        code, out = run(capsys, ["verify", "--k", "18", "--json"])
        sub = {c["name"]: c for c in json.loads(out)["subchecks"]}["halving-obstruction"]
        assert code == 1 and sub["pass"] is False and None not in sub["witness"].values()

    def test_k18_points_checked_on_bform_curve_once(self, k18_report, k18):
        # the exact on-curve check is the costly step: the halving stage
        # checks p_sigma on E, and Pb and Q = Pb + (0, 0) follow from it
        # by the completed square and the closed form, so nothing is checked
        # on E_b
        _, doc, checked = k18_report
        assert all(c["pass"] for c in doc["subchecks"])
        assert (k18["ps"], k18["E"]) in checked
        assert [P for P, E in checked if E == k18["Eb"]] == []

    def test_k18_on_curve_identity_computed_once(self, capsys, k18):
        # the on-curve, nontorsion, halving and height stages all check
        # p_sigma on E, and no other pair: one request computes the exact
        # identity once
        identity = mw._weierstrass_identity
        identity.cache_clear()
        assert run(capsys, ["verify", "--k", "18", "--json"])[0] == 0
        assert identity.cache_info().misses == 1 and identity.cache_info().hits == 3
        assert mw.verify_on_curve(k18["ps"], k18["E"])
        assert identity.cache_info().misses == 1

    def test_k18_neron_witness(self, k18_report):
        # per place, what the local-height rule read: (m, v(psi2), v(dF/dx), M)
        sub = {c["name"]: c for c in k18_report[1]["subchecks"]}["neron-components"]
        wit = sub["witness"]
        assert {p: (w["m"], w["M"]) for p, w in wit.items()} == \
            {f.place: (f.m, sub["components"][f.place]) for f in SURFACES[18].fibers}
        assert wit["s=0"] == {"m": 12, "v_psi2": 7, "v_dfdx": 6, "M": 6}
        assert all(w["M"] == 0 or 0 < w["M"] <= min(w["v_psi2"], w["v_dfdx"])
                   for w in wit.values())

    def test_k18_wrong_fiber_record_fails(self, capsys, monkeypatch):
        # s=1/18 recorded as I3: the hypothesis check catches it in the report
        fibers = tuple(f._replace(m=3) if f.place == "s=1/18" else f
                       for f in SURFACES[18].fibers)
        monkeypatch.setitem(SURFACES, 18, SURFACES[18]._replace(fibers=fibers))
        code, out = run(capsys, ["verify", "--k", "18", "--json"])
        assert code == 1
        sub = {c["name"]: c for c in json.loads(out)["subchecks"]}
        assert sub["neron-components"]["pass"] is False
        assert sub["neron-components"]["error"].startswith("s=1/18: ")
        assert sub["height"]["pass"] is False

    def test_k18_wrong_fiber_record_passed_directly(self):
        # the fibers read are those of the record handed to the subchecks,
        # with no SURFACES entry patched
        fibers = tuple(f._replace(m=3) if f.place == "s=1/18" else f
                       for f in SURFACES[18].fibers)
        surf = SURFACES[18]._replace(fibers=fibers)
        exact, _, d3_term = identity_rhs(surf, 128)
        sub = {c["name"]: c for _, checks in _subchecks(surf, 128, 31, exact, d3_term)
               for c in checks}
        assert sub["neron-components"]["pass"] is False
        assert sub["neron-components"]["error"].startswith("s=1/18: ")
        assert sub["height"]["pass"] is False

    def test_k18_lattice_reads_the_record(self):
        # the s=0 entry as I11: Picard number 20 and the record's fibers give
        # Shioda rank 2 against the record's rank 1, whatever SURFACES holds
        fibers = tuple(f._replace(m=11) if f.place == "s=0" else f
                       for f in SURFACES[18].fibers)
        stage, checks = next(_subchecks(SURFACES[18]._replace(fibers=fibers),
                                        128, 31, None, None))
        sub = {c["name"]: c for c in checks}
        assert stage == "lattice"
        assert sub["shioda-rank"]["pass"] is False and sub["shioda-rank"]["rank"] == 2

    def test_k18_wrong_fiber_at_infinity_fails(self):
        # the I12 at sigma = inf recorded as I10 and the I2 at sigma = 0 as
        # I4 (the m still sum to 24): the weight rule reads v(disc) = 12 there
        fibers = tuple(f._replace(m={"s=0": 10, "s=inf": 4}.get(f.place, f.m))
                       for f in SURFACES[18].fibers)
        surf = SURFACES[18]._replace(fibers=fibers)
        exact, _, d3_term = identity_rhs(surf, 128)
        sub = {c["name"]: c for _, checks in _subchecks(surf, 128, 31, exact, d3_term)
               for c in checks}
        assert sub["neron-components"]["pass"] is False
        assert sub["neron-components"]["error"].startswith("s=0: v(c4) = 0, v(disc) = 12; ")
        assert sub["height"]["pass"] is False

    def test_k18_wrong_height_record_fails(self, capsys, monkeypatch):
        # h = 12 recorded: the curve gives h = 10, and (P.O) = 5 is not the
        # (12 - 2*2 + 4)/2 = 6 that the record and its components imply
        monkeypatch.setitem(SURFACES, 18, SURFACES[18]._replace(height=(12, 1)))
        code, out = run(capsys, ["verify", "--k", "18", "--json"])
        assert code == 1
        sub = {c["name"]: c for c in json.loads(out)["subchecks"]}
        assert sub["height"]["pass"] is False and sub["height"]["value"] == "10"
        assert sub["zero-section-intersection"]["pass"] is False
        assert sub["zero-section-intersection"]["value"] == 5

    def test_k18_epstein_subcheck(self, k18_report):
        # the Epstein combination checks the (14/5) d3 term at --prec
        _, doc, _ = k18_report
        eps = {c["name"]: c for c in doc["subchecks"]}["dirichlet-term-epstein"]
        assert eps["pass"] is True
        assert eps["diff"] <= eps["error_bound"] < 1e-35
        assert abs(eps["value"] - 2.8 * dirichlet.d3(128).value) < 1e-15


class TestAgreementRule:
    # every verify comparison is decided exactly on the carriers, and the
    # one default tolerance lives in the parser
    @pytest.mark.parametrize("k", VERIFY_KS)
    def test_identity_needs_the_gap_inside_the_bounds(self, capsys, monkeypatch, k):
        # a quadrature 1e-9 off that claims a bound of 1e-15: the gap plus
        # both bounds is far under --tol 1e-6, but the gap is not inside the
        # bounds; the EK series faces the right-hand side, so only the
        # identity fails
        quadrature = mahler.mahler_quadrature

        def off_by_1e9(k, **kwargs):
            v = quadrature(k, **kwargs)
            return BigReal.with_bound(v.value + Fraction(1, 10 ** 9), Fraction(1, 10 ** 15),
                                      64, "estimate")
        monkeypatch.setattr(mahler, "mahler_quadrature", off_by_1e9)
        code, out = run(capsys, ["verify", "--k", str(k), "--tol", "1e-6", "--json"])
        doc = json.loads(out)
        assert code == 1 and doc["pass"] is False and doc["tolerance"] == 1e-6
        assert 0.99e-9 < doc["abs_diff"] < 1.01e-9 and doc["lhs"]["error_bound"] < 1e-14
        assert all(c["pass"] for c in doc["subchecks"])

    def test_ek_runs_at_prec(self, capsys):
        # the EK series runs at --prec against the right-hand side, so its
        # bound follows the precision, not the float64 quadrature
        code, out = run(capsys, ["verify", "--k", "18", "--prec", "200", "--json"])
        ek = {c["name"]: c for c in json.loads(out)["subchecks"]}[
            "eisenstein-kronecker-series"]
        assert code == 0 and ek["pass"] is True
        assert ek["prec"] == 200 and ek["diff"] <= ek["error_bound"] <= 1e-55

    def test_one_default_tolerance(self, capsys, k18_report):
        # one tolerance for every k, which each identity meets with the
        # exact gap (never the float64 subtraction's 0) and both bounds
        tols = set()
        for k in VERIFY_KS:
            doc = k18_report[1] if k == 18 else \
                json.loads(run(capsys, ["verify", "--k", str(k), "--json"])[1])
            assert doc["pass"] is True, k
            assert 0 < doc["abs_diff"] <= doc["lhs"]["error_bound"] + doc["rhs"]["error_bound"]
            assert doc["abs_diff"] + doc["lhs"]["error_bound"] + doc["rhs"]["error_bound"] \
                <= doc["tolerance"], k
            tols.add(doc["tolerance"])
        assert len(tols) == 1 and tols.pop() <= 1e-12


class TestWithoutScipy:
    def test_no_module_imports_scipy(self):
        for path in Path(k3mahler.__file__).parent.glob("*.py"):
            text = path.read_text()
            assert "import scipy" not in text and "from scipy" not in text, path.name

    def test_no_module_imports_numpy(self):
        importers = [path.name for path in Path(k3mahler.__file__).parent.glob("*.py")
                     if re.search(r"^\s*(import|from) numpy\b", path.read_text(), re.M)]
        assert importers == []


def fresh_env(**extra) -> dict:
    """The environment of a fresh interpreter that imports k3mahler from here."""
    return dict(os.environ, PYTHONPATH=str(Path(k3mahler.__file__).parent.parent), **extra)


LOADS_PROBE = """
import contextlib, io, json, sys
sys.modules["scipy"] = None
argv = json.loads(sys.argv[1])
from k3mahler.cli import main
out = io.StringIO()
if argv:
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
print(json.dumps({"loaded": [m for m in ("decimal", "fractions", "mpmath", "numpy")
                             if m in sys.modules],
                  "startup": [m for m in ("dataclasses", "csv", "hashlib", "argparse",
                                          "gettext", "locale") if m in sys.modules],
                  "ours": sorted(m.partition(".")[2] for m in sys.modules
                                 if m.startswith("k3mahler.")),
                  "stdout": out.getvalue()}))
"""

# the package's own modules each request loads: every request reads the
# records in `surfaces` and imports its handler's module, `verify` or
# `commands`, and then only the layers its route runs: `verify --k 0` no
# L-value (`lfunctions`) and no lattice sums (`eisenstein`), and only the
# identities with a d3 term `dirichlet`
IMPORT = ["cli", "surfaces"]
ONE_LAYER = IMPORT + ["commands"]
AP = sorted(ONE_LAYER + ["pointcount"])
LFUNCTIONS = sorted(ONE_LAYER + ["bigreal", "lfunctions"])
MAHLER = sorted(ONE_LAYER + ["bigreal", "mahler"])
VERIFY = IMPORT + ["bigreal", "mahler", "verify"]
VERIFY_L = sorted(VERIFY + ["eisenstein", "lattices", "lfunctions", "pointcount"])
SECTIONS = ["exactalg", "mwsections"]
# what `import` and `ap` never load, and every layer with rationals does
FRACTIONS = ["decimal", "fractions"]


class TestWithoutNumpy:
    # one fresh interpreter per request, in which `import scipy` fails,
    # reports which of decimal, fractions, mpmath and numpy the request
    # loaded, which of the modules that would only cost start-up time (no
    # layer needs them), and which of the package's own modules
    @pytest.mark.parametrize("argv, loads, ours", [
        ([], [], IMPORT),
        (["ap", "--k", "18", "--json"], [], AP),
        (["lattice", "--k", "18", "--json"], FRACTIONS, sorted(ONE_LAYER + ["lattices"])),
        (["verify", "--k", "0", "--json"], FRACTIONS, sorted(VERIFY + ["dirichlet"])),
        *((["verify", "--k", k, "--json"], FRACTIONS, VERIFY_L) for k in ("3", "6")),
        (["verify", "--k", "18", "--json"], FRACTIONS,
         sorted(VERIFY_L + ["dirichlet"] + SECTIONS)),
        (["mahler", "--k", "6", "--json"], FRACTIONS, MAHLER),
        (["mahler", "--k", "6", "--method", "bertin", "--json"], FRACTIONS,
         sorted(ONE_LAYER + ["bigreal", "eisenstein"])),
        (["lvalue", "--k", "18", "--json"], FRACTIONS, LFUNCTIONS),
        (["coeffs", "--k", "6", "--json"], FRACTIONS, LFUNCTIONS),
        # 3319, the first prime past 3315, from which `ap` once scanned by numpy
        (["ap", "--k", "3", "--pmax", "3319"], [], AP),
        (["height", "--json"], FRACTIONS, sorted(AP + SECTIONS)),
    ], ids=["import", "ap-k18", "lattice-k18", "verify-k0", "verify-k3", "verify-k6",
            "verify-k18", "mahler-k6", "mahler-bertin-k6", "lvalue-k18", "coeffs-k6",
            "ap-control", "height"])
    def test_numpy_stays_unloaded(self, argv, loads, ours):
        proc = subprocess.run([sys.executable, "-c", LOADS_PROBE, json.dumps(argv)],
                              capture_output=True, text=True, env=fresh_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr[-500:]
        probe = json.loads(proc.stdout)
        assert probe["loaded"] == loads
        assert probe["ours"] == ours
        assert probe["startup"] == [], probe["startup"]
        if argv[:1] == ["verify"]:
            doc = json.loads(probe["stdout"])
            assert abs(doc["lhs"]["value"] - doc["rhs"]["value"]) <= 1e-14


# the `k3mahler` console script, run in a fresh interpreter
CONSOLE_SCRIPT = "import sys; from k3mahler.cli import main; sys.exit(main())"

EXIT_PROBE = """
import atexit, gc, json, sys
argv = json.loads(sys.argv[1])
report = lambda: print(json.dumps({"frozen_at_exit": gc.get_freeze_count()}))
if not argv:    # before the import: a hook the import registered would run first
    atexit.register(report)
from k3mahler.cli import main
if argv:        # after the import and before main: a hook main registers runs first
    atexit.register(report)
    code = main(argv)
    print(json.dumps({"code": code, "frozen": gc.get_freeze_count()}))
"""


class TestProcessExit:
    def test_main_registers_the_exit_freeze_once(self, capsys, monkeypatch):
        # as in a process where main has not run yet; the hook an earlier call
        # registered is dropped, and main registers it again
        monkeypatch.setattr(cli, "_freeze_at_exit", False)
        atexit.unregister(gc.freeze)
        before = atexit._ncallbacks()
        assert run(capsys, ["ap", "--k", "6", "--pmax", "13"])[0] == 0
        assert atexit._ncallbacks() == before + 1
        for argv in (["verify", "--k", "0"], ["lattice", "--k", "18"]):
            assert run(capsys, argv)[0] == 0
        assert atexit._ncallbacks() == before + 1
        # the hook runs only at exit: in-process callers keep collecting cycles
        assert gc.get_freeze_count() == 0 and gc.isenabled()

    def test_frozen_at_exit_of_a_request_only(self):
        def probe(argv):
            proc = subprocess.run([sys.executable, "-c", EXIT_PROBE, json.dumps(argv)],
                                  capture_output=True, text=True, env=fresh_env(), timeout=120)
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr[-500:]
            return [json.loads(line) for line in proc.stdout.splitlines()[-2:]]

        ran, at_exit = probe(["ap", "--k", "6", "--pmax", "13", "--json"])
        assert ran == {"code": 0, "frozen": 0} and at_exit["frozen_at_exit"] > 0
        # importing the CLI as a library leaves the host's exit alone
        assert probe([])[-1] == {"frozen_at_exit": 0}


class TestClosedPipe:
    # the read end is closed before the child starts, so every write meets
    # EPIPE whatever the timing
    @pytest.mark.parametrize("argv, buffering", [
        # written straight through: the error is raised inside print
        (["verify", "--k", "18", "--json"], {"PYTHONUNBUFFERED": "1"}),
        # one short line held in the buffer: the error is raised at the flush
        (["ap", "--k", "6", "--pmax", "13"], {}),
    ], ids=["print", "flush"])
    def test_ends_quietly(self, argv, buffering):
        env = fresh_env(**buffering)
        if not buffering:
            env.pop("PYTHONUNBUFFERED", None)
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-c", CONSOLE_SCRIPT, *argv], stdout=write,
                                  stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (1, "")


class TestNoFiles:
    def test_reads_and_writes_nothing_under_home_or_cwd(self, capsys, tmp_path,
                                                         monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.chdir(tmp_path)
        # ignored: the program reads no config file
        (tmp_path / "k3mahler.cfg").write_text("cache_dir = cachehere\n")
        code, out = run(capsys, ["ap", "--k", "6", "--pmax", "31", "--json"])
        assert code == 0
        assert json.loads(out)["value"]["29"] == 50
        assert [f.name for f in tmp_path.iterdir()] == ["k3mahler.cfg"]


class TestHumanOutput:
    def test_lattice_text(self, capsys):
        code, out = run(capsys, ["lattice", "--k", "18"])
        assert code == 0
        assert "120" in out and "rank = 1" in out

    def test_height_text(self, capsys):
        code, out = run(capsys, ["height"])
        assert code == 0
        assert "h(p_sigma) = 10" in out
