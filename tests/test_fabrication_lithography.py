"""Unit tests for repro.fabrication.lithography."""

import pytest

from repro.fabrication.lithography import LithographyRules


class TestLithographyRules:
    def test_paper_defaults(self):
        rules = LithographyRules()
        assert rules.litho_pitch_nm == 32.0
        assert rules.nanowire_pitch_nm == 10.0
        assert rules.min_contact_width_nm == pytest.approx(48.0)

    def test_min_contact_span(self):
        rules = LithographyRules()
        assert rules.min_contact_span_nanowires == 4  # floor(48 / 10)

    def test_contact_width_covers_group(self):
        rules = LithographyRules()
        assert rules.contact_width_nm(10) == pytest.approx(100.0)
        assert rules.contact_width_nm(2) == pytest.approx(48.0)  # min width

    def test_contact_width_rejects_bad_group(self):
        with pytest.raises(ValueError):
            LithographyRules().contact_width_nm(0)

    def test_boundary_loss(self):
        rules = LithographyRules(contact_gap_factor=1.0, alignment_tolerance_nm=5.0)
        # (32 + 2*5) / 10 = 4.2 nanowires per boundary
        assert rules.boundary_loss_nanowires() == pytest.approx(4.2)

    def test_rejects_inconsistent_pitches(self):
        with pytest.raises(ValueError):
            LithographyRules(litho_pitch_nm=5.0, nanowire_pitch_nm=10.0)

    def test_rejects_negative_tolerance(self):
        with pytest.raises(ValueError):
            LithographyRules(alignment_tolerance_nm=-1.0)
