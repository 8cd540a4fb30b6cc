import string
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bufcfa.errors import BufcfaError, ParseError
from bufcfa.model import FactorModel
from bufcfa.modelspec import format_model_spec, parse_grid_document, parse_model_spec
from bufcfa.simulation import GridSpec

ONE_STEP_TEXT = """\
variables: x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 x16 x17 x18
factor F1: x1 x2 x3 x4 x5 x6
factor F2: x7 x8 x9 x10 x11 x12
factor F3: x13 x14 x15 x16 x17 x18
phi: free
procedure: one-step
"""

FIXED_PHI_TEXT = """\
variables: x1 x2 x3 x4 x5 x6 x7 x8 x9 x10 x11 x12 x13 x14 x15 x16 x17 x18
factor F1: x1 x2 x3 x4 x5 x6
factor F2: x7 x8 x9 x10 x11 x12
factor F3: x13 x14 x15 x16 x17 x18
phi F1 F2: 0.304
phi F1 F3: 0.304
phi F2 F3: 0.304
procedure: multi-step
"""


class TestParsing:
    def test_one_step_document(self):
        doc = parse_model_spec(ONE_STEP_TEXT)
        assert len(doc.variables) == 18
        assert doc.factors == ("F1", "F2", "F3")
        assert doc.salient["F2"] == tuple(f"x{i}" for i in range(7, 13))
        assert doc.procedure == "one-step"
        assert doc.phi_value() == "free"
        pattern = doc.pattern("zero")
        assert pattern.blocks[1] == tuple(range(6, 12))

    def test_fixed_phi_document(self):
        doc = parse_model_spec(FIXED_PHI_TEXT)
        phi = doc.phi_value()
        assert isinstance(phi, np.ndarray)
        assert phi[0, 1] == 0.304 and phi[2, 1] == 0.304
        assert np.all(np.diag(phi) == 1.0)
        assert doc.procedure == "multi-step"

    def test_duplicate_salient_assignment(self):
        text = ONE_STEP_TEXT.replace("factor F2: x7", "factor F2: x1 x7")
        with pytest.raises(ParseError, match="duplicate salient assignment"):
            parse_model_spec(text)

    def test_unknown_variable_with_line_number(self):
        text = ONE_STEP_TEXT.replace("factor F2: x7", "factor F2: y9 x7")
        with pytest.raises(ParseError, match="line 3") as excinfo:
            parse_model_spec(text)
        assert "y9" in str(excinfo.value)

    def test_malformed_phi(self):
        text = ONE_STEP_TEXT.replace("phi: free", "phi F1 F2: maybe")
        with pytest.raises(ParseError, match="malformed phi"):
            parse_model_spec(text)

    def test_phi_out_of_range(self):
        text = ONE_STEP_TEXT.replace("phi: free", "phi F1 F2: 1.2")
        with pytest.raises(ParseError, match=r"outside \(-1, 1\)"):
            parse_model_spec(text)

    @pytest.mark.parametrize("value", ["1.5", "-1", "nan", "inf"])
    def test_phi_shorthand_out_of_range(self, value):
        text = ONE_STEP_TEXT.replace("phi: free", f"phi: {value}")
        with pytest.raises(ParseError, match=r"line 5: fixed phi value .* outside \(-1, 1\)"):
            parse_model_spec(text)

    @pytest.mark.parametrize("key", ["mi_threshold", "weight_tolerance"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_bounds_must_be_finite(self, key, value):
        with pytest.raises(ParseError, match=f"line 7: {key} must be a .*finite number"):
            parse_model_spec(ONE_STEP_TEXT + f"{key}: {value}\n")

    def test_unknown_procedure(self):
        text = ONE_STEP_TEXT.replace("one-step", "two-step")
        with pytest.raises(ParseError, match="unknown procedure"):
            parse_model_spec(text)

    def test_unassigned_variable(self):
        text = ONE_STEP_TEXT.replace("factor F3: x13 x14 x15 x16 x17 x18",
                                     "factor F3: x13 x14 x15 x16 x17")
        with pytest.raises(ParseError, match="x18"):
            parse_model_spec(text)

    def test_multiple_diagnostics_collected(self):
        text = ONE_STEP_TEXT.replace("phi: free", "phi F1 F2: maybe\njunk line")
        with pytest.raises(ParseError) as excinfo:
            parse_model_spec(text)
        assert len(excinfo.value.diagnostics) >= 2

    def test_weights_must_cover_all_variables(self):
        text = ONE_STEP_TEXT + "weights: x1=0.6\n"
        with pytest.raises(ParseError, match="missing weight"):
            parse_model_spec(text)

    def test_comments_and_blank_lines_ignored(self):
        text = "# heading\n\n" + ONE_STEP_TEXT + "\n# trailing\n"
        doc = parse_model_spec(text)
        assert doc.procedure == "one-step"


class TestRoundTrip:
    @pytest.mark.parametrize("text", [ONE_STEP_TEXT, FIXED_PHI_TEXT])
    def test_parse_format_parse(self, text):
        doc = parse_model_spec(text)
        assert parse_model_spec(format_model_spec(doc)) == doc

    def test_round_trip_with_weights(self):
        weights = " ".join(f"x{i}=0.6" for i in range(1, 19))
        text = FIXED_PHI_TEXT + f"weights: {weights}\n"
        doc = parse_model_spec(text)
        again = parse_model_spec(format_model_spec(doc))
        assert again == doc
        assert np.allclose(again.weight_vector(), 0.6)

    def test_shipped_documents_round_trip(self, data_dir):
        for name in ("one_step.model", "multi_step.model", "fixed_weights.model"):
            doc = parse_model_spec((data_dir / name).read_text())
            assert parse_model_spec(format_model_spec(doc)) == doc


class TestGridDocument:
    def test_shipped_grid(self, data_dir):
        from bufcfa.simulation import GridSpec

        values = parse_grid_document((data_dir / "accuracy_grid.grid").read_text())
        assert values == {
            "salient_sizes": (0.6,),
            "nonsalient_sizes": (0.0, 0.1, 0.2),
            "phi_values": (0.0,),
            "sample_sizes": (300, 900),
            "factors": 3,
            "per_factor": 6,
            "replications": 100,
            "master_seed": 20240501,
        }
        assert len(GridSpec(**values).cells) == 6

    def test_every_bad_line_reported(self):
        text = "salient_sizes: 0.6\nnonsalient_sizes: x\nbogus: 1\nno colon\nfactors: 2.5\n"
        with pytest.raises(ParseError) as exc:
            parse_grid_document(text)
        assert exc.value.diagnostics == [
            "line 2: malformed value 'x' for nonsalient_sizes",
            "line 3: unknown key 'bogus'",
            "line 4: expected 'key: value', got 'no colon'",
            "line 5: malformed value '2.5' for factors",
            "line 1: missing required key 'nonsalient_sizes'",
            "line 1: missing required key 'phi_values'",
            "line 1: missing required key 'sample_sizes'",
        ]


DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# Tokens for a mutated value: numbers of every kind, nan/inf, negatives and
# junk text.  Integers stay small so that a mutated grid costs little to check.
TOKENS = st.one_of(
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-1", "0", "-0.0", "1", "1.5", "1e308",
                     "free", "F1", "x1", "x1=0.6", "#", ":", "=", "", "one-step", "search"]),
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.text(string.printable, max_size=6),
)


def mutated(text: str):
    """``text`` with the values of up to three of its ``key: value`` lines replaced."""
    lines = text.splitlines()
    keyed = [i for i, line in enumerate(lines) if ":" in line and not line.startswith("#")]

    def apply(edits):
        out = list(lines)
        for i, tokens in edits:
            out[i] = out[i].partition(":")[0] + ": " + " ".join(tokens)
        return "\n".join(out) + "\n"

    edit = st.tuples(st.sampled_from(keyed), st.lists(TOKENS, max_size=4))
    return st.lists(edit, min_size=1, max_size=3).map(apply)


class TestGrammar:
    """A mutated document parses into a usable object or raises BufcfaError."""

    @given(mutated((DATA_DIR / "one_step.model").read_text()))
    @settings(max_examples=150, deadline=None)
    def test_model_document(self, text):
        try:
            doc = parse_model_spec(text)
            pattern = doc.pattern("zero")
            phi = doc.phi_value()
            if isinstance(phi, str):
                model = FactorModel.free_phi(pattern)
            else:
                model = FactorModel.fixed_phi(pattern, phi)
        except BufcfaError:
            return
        assert model.problems == ()  # fit accepts what the parser accepted

    @given(mutated((DATA_DIR / "accuracy_grid.grid").read_text()))
    @settings(max_examples=150, deadline=None)
    def test_grid_document(self, text):
        try:
            GridSpec(**parse_grid_document(text))
        except BufcfaError:
            pass
