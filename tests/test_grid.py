"""Grid types, thresholding, labeling, and PGM/CSV round trips."""

import numpy as np
import pytest

from topokit.grid import (
    SUBLEVEL,
    SUPERLEVEL,
    GridFormatError,
    as_likelihood,
    as_mask,
    format_real,
    label_components,
    load_grid,
    load_mask_pgm,
    save_grid_csv,
    save_grid_pgm,
    save_mask_pgm,
    threshold,
)

from _support import random_distinct_grid


class TestValidation:
    def test_accepts_2d_in_range(self):
        g = as_likelihood([[0.0, 1.0], [0.5, 0.25]])
        assert g.shape == (2, 2)
        assert g.dtype == np.float64

    def test_rejects_out_of_range_with_pixel_index(self):
        with pytest.raises(ValueError, match="pixel 3"):
            as_likelihood([[0.1, 0.2], [0.3, 1.5]])

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="pixel 0"):
            as_likelihood([[-0.1, 0.2]])

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            as_likelihood(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_likelihood([0.1, 0.2, 0.3])

    def test_mask_accepts_zero_one(self):
        m = as_mask([[0, 1], [1, 0]])
        assert m.dtype == bool

    def test_format_real_nine_significant_digits(self):
        assert format_real(0.1) == "0.1"
        assert format_real(1 / 3) == "0.333333333"
        assert format_real(0.0) == "0"


class TestThreshold:
    def test_sublevel_example(self):
        g = [[0.1, 0.9], [0.2, 0.8]]
        assert threshold(g, 0.5, SUBLEVEL).astype(int).tolist() == [[1, 0], [1, 0]]

    def test_boundary_includes_equal_values(self):
        g = [[0.1, 0.9], [0.2, 0.8]]
        assert threshold(g, 1.0, SUBLEVEL).all()

    def test_superlevel_example(self):
        g = [[0.1, 0.9], [0.2, 0.8]]
        assert threshold(g, 0.5, SUPERLEVEL).astype(int).tolist() == [[0, 1], [0, 1]]

    def test_unknown_direction_rejected(self):
        with pytest.raises(ValueError):
            threshold([[0.5]], 0.5, "sideways")

    def test_filtration_monotonicity(self):
        rng = np.random.default_rng(11)
        g = rng.uniform(0.0, 1.0, (7, 9))
        thresholds = np.sort(rng.uniform(0.0, 1.0, 10))
        for c1, c2 in zip(thresholds, thresholds[1:]):
            lo = threshold(g, c1, SUBLEVEL)
            hi = threshold(g, c2, SUBLEVEL)
            assert (lo <= hi).all()


class TestLabelComponents:
    def test_two_isolated_pixels(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = mask[2, 2] = True
        assert label_components(mask, 4).count == 2

    def test_diagonal_depends_on_connectivity(self):
        mask = np.eye(3, dtype=bool)
        assert label_components(mask, 8).count == 1
        assert label_components(mask, 4).count == 3

    def test_empty_mask(self):
        labeling = label_components(np.zeros((4, 4), dtype=bool), 4)
        assert labeling.count == 0
        assert (labeling.labels == 0).all()

    def test_first_encounter_label_order(self):
        mask = np.array([[1, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=bool)
        labeling = label_components(mask, 4)
        assert labeling.count == 3
        assert labeling.labels[0, 0] == 1
        assert labeling.labels[0, 2] == 2
        assert labeling.labels[2, 0] == 3

    def test_count_invariant_under_geometry_permutations(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            mask = rng.uniform(size=(8, 6)) < 0.4
            n = label_components(mask, 4).count
            assert label_components(mask.T.copy(), 4).count == n
            assert label_components(mask[::-1].copy(), 4).count == n
            assert label_components(mask[:, ::-1].copy(), 4).count == n

    def test_labels_constant_within_component(self):
        mask = np.array([[1, 1, 0], [0, 1, 0], [0, 1, 1]], dtype=bool)
        labeling = label_components(mask, 4)
        assert labeling.count == 1
        assert set(np.unique(labeling.labels[mask])) == {1}

    def test_bad_connectivity_rejected(self):
        with pytest.raises(ValueError):
            label_components(np.ones((2, 2), dtype=bool), 6)


class TestPgm:
    def test_ascii_pgm_rescales_by_maxval(self, tmp_path):
        path = tmp_path / "a.pgm"
        path.write_text("P2\n2 2\n255\n0 255\n128 0\n")
        g = load_grid(path)
        assert g.tolist() == [[0.0, 1.0], [128 / 255, 0.0]]

    def test_comments_and_whitespace(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_text("P2 # format\n# a comment line\n2 1\n# another\n10\n5 10\n")
        g = load_grid(path)
        assert g.tolist() == [[0.5, 1.0]]

    @pytest.mark.parametrize("magic, raster", [(b"P2", b"10 20\n"), (b"P5", bytes([10, 20]))])
    def test_comment_right_after_maxval_ends_at_its_newline(self, tmp_path, magic, raster):
        path = tmp_path / "c.pgm"
        path.write_bytes(magic + b"\n2 1\n255#c\n" + raster)
        assert load_grid(path).tolist() == [[10 / 255, 20 / 255]]

    def test_comment_after_maxval_without_newline_is_truncation(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n2 1\n255#cc")
        with pytest.raises(GridFormatError, match="truncated P5 raster"):
            load_grid(path)

    def test_binary_raster_may_start_with_a_hash(self, tmp_path):
        path = tmp_path / "h.pgm"
        path.write_bytes(b"P5\n2 1\n255\n" + bytes([ord("#"), 20]))
        assert load_grid(path).tolist() == [[ord("#") / 255, 20 / 255]]

    def test_binary_single_byte(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 255, 128, 0]))
        g = load_grid(path)
        assert g.tolist() == [[0.0, 1.0], [128 / 255, 0.0]]

    def test_binary_two_byte_big_endian(self, tmp_path):
        path = tmp_path / "b16.pgm"
        samples = np.array([0, 65535, 32768, 1], dtype=">u2")
        path.write_bytes(b"P5\n2 2\n65535\n" + samples.tobytes())
        g = load_grid(path)
        assert g.tolist() == [[0.0, 1.0], [32768 / 65535, 1 / 65535]]

    def test_sample_above_maxval_names_pixel(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n2 1\n100\n50 101\n")
        with pytest.raises(GridFormatError, match="pixel 1"):
            load_grid(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.pgm"
        path.write_text("P2\n2 2\n255\n0 255 128\n")
        with pytest.raises(GridFormatError):
            load_grid(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P3\n1 1\n255\n0\n")
        with pytest.raises(GridFormatError):
            load_grid(path)

    def test_bad_maxval_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_text("P2\n1 1\n0\n0\n")
        with pytest.raises(GridFormatError):
            load_grid(path)

    @pytest.mark.parametrize("text, message", [
        ("P2\n2 1\n1_0\n5 10\n", "malformed PGM header"),
        ("P2\n2 1\n10\n5 1_0\n", "non-integer sample"),
    ])
    def test_digit_separators_rejected(self, tmp_path, text, message):
        path = tmp_path / "us.pgm"
        path.write_text(text)
        with pytest.raises(GridFormatError, match=message):
            load_grid(path)

    @pytest.mark.parametrize("text, message", [
        ("P2\n+2 1\n10\n5 1\n", "malformed PGM header"),
        ("P2\n2 1\n+10\n5 1\n", "malformed PGM header"),
        ("P2\n2 1\n10\n5 +1\n", "non-integer sample"),
    ])
    def test_signs_rejected(self, tmp_path, text, message):
        path = tmp_path / "sign.pgm"
        path.write_text(text)
        with pytest.raises(GridFormatError, match=message):
            load_grid(path)

    def test_underscores_in_comments_and_binary_rasters_accepted(self, tmp_path):
        path = tmp_path / "ok.pgm"
        path.write_bytes(b"P5 # scan_01\n2 1\n255\n" + b"_\x00")
        assert load_grid(path).tolist() == [[ord("_") / 255, 0.0]]

    def test_save_load_round_trip_within_quantization(self, tmp_path):
        rng = np.random.default_rng(3)
        g = rng.uniform(0.0, 1.0, (5, 7))
        path = tmp_path / "g.pgm"
        save_grid_pgm(g, path)
        back = load_grid(path)
        assert np.abs(back - g).max() <= 0.5 / 65535 + 1e-12

    def test_save_is_deterministic(self, tmp_path):
        g = random_distinct_grid(np.random.default_rng(4), 4, 4)
        p1, p2 = tmp_path / "a.pgm", tmp_path / "b.pgm"
        save_grid_pgm(g, p1)
        save_grid_pgm(g, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCsv:
    def test_direct_parse(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.1,0.9\n0.2,0.8\n")
        assert load_grid(path).tolist() == [[0.1, 0.9], [0.2, 0.8]]

    @pytest.mark.parametrize("cell", ["0.2_5", "1_0e-1"])
    def test_digit_separators_rejected_with_line(self, tmp_path, cell):
        path = tmp_path / "g.csv"
        path.write_text(f"0.1,0.9\n0.2,{cell}\n")
        with pytest.raises(GridFormatError, match="line 2: unparseable cell"):
            load_grid(path)

    @pytest.mark.parametrize("cell", ["\u0660.\u0665", "0.\uff15", "0.5\u00a0"])
    def test_non_ascii_rejected_with_line(self, tmp_path, cell):
        # Arabic-Indic and fullwidth digits and a no-break space all pass float().
        path = tmp_path / "g.csv"
        path.write_text(f"0.1,0.9\n0.2,{cell}\n", encoding="utf-8")
        with pytest.raises(GridFormatError, match="line 2: unparseable cell"):
            load_grid(path)

    def test_padding_spaces_accepted(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text(" 0.5 ,0.25\n0.3,\t0.4\n")
        assert load_grid(path).tolist() == [[0.5, 0.25], [0.3, 0.4]]

    def test_non_rectangular_rejected(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.1,0.9\n0.2\n")
        with pytest.raises(GridFormatError, match="rectangular"):
            load_grid(path)

    def test_out_of_range_value_names_pixel(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.1,0.9\n0.2,1.8\n")
        with pytest.raises(ValueError, match="pixel 3"):
            load_grid(path)

    def test_round_trip_within_1e9(self, tmp_path):
        rng = np.random.default_rng(9)
        g = rng.uniform(0.0, 1.0, (6, 4))
        path = tmp_path / "g.csv"
        save_grid_csv(g, path)
        back = load_grid(path)
        assert np.abs(back - g).max() <= 1e-9

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_bytes(b"\xff\xfe0.5,0.1\n")
        with pytest.raises(GridFormatError, match=r"g\.csv: not UTF-8 text"):
            load_grid(path)

    def test_format_override_beats_extension(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("0.25,0.75\n")
        assert load_grid(path, "csv").tolist() == [[0.25, 0.75]]

    def test_unknown_extension_without_format_rejected(self, tmp_path):
        path = tmp_path / "grid.dat"
        path.write_text("0.25\n")
        with pytest.raises(ValueError, match="cannot infer"):
            load_grid(path)


class TestMaskPgm:
    def test_round_trip(self, tmp_path):
        mask = np.array([[1, 0, 1], [0, 1, 0]], dtype=bool)
        path = tmp_path / "m.pgm"
        save_mask_pgm(mask, path)
        assert (load_mask_pgm(path) == mask).all()

    def test_any_nonzero_is_foreground(self, tmp_path):
        path = tmp_path / "m.pgm"
        path.write_text("P2\n3 1\n255\n0 7 255\n")
        assert load_mask_pgm(path).tolist() == [[False, True, True]]
