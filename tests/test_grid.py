"""Grid types, thresholding, labeling, and PGM/CSV round trips."""

import hashlib
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from topokit import grid as grid_module
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

from _support import bfs_labels, random_distinct_grid, reference_csv_grid, reference_pgm_samples


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

    @pytest.mark.parametrize("row, shown", [
        ([0.5, np.nan], "nan"), ([0.5, np.inf], "inf"), ([0.5, 1.5], "1.5"),
        ([0.5, -np.inf], "-inf"), ([0.5, 2.0, np.nan], "2.0"),  # the first bad pixel is named
        ([0.5, -0.0], None),  # -0.0 lies in [0, 1]
    ])
    def test_message_shows_the_value_as_a_float(self, row, shown):
        if shown is None:
            assert as_likelihood(np.array([row])).tolist() == [row]
            return
        with pytest.raises(GridFormatError) as exc:
            as_likelihood(np.array([row]))
        assert str(exc.value) == f"value {shown} at pixel 1 is outside [0, 1]"

    def test_rejects_empty_and_non_2d(self):
        with pytest.raises(ValueError):
            as_likelihood(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            as_likelihood([0.1, 0.2, 0.3])

    def test_mask_accepts_zero_one(self):
        m = as_mask([[0, 1], [1, 0]])
        assert m.dtype == bool

    def test_mask_rejects_empty(self):
        with pytest.raises(ValueError, match=r"mask must be a nonempty 2D array, got shape \(0, 3\)"):
            as_mask(np.zeros((0, 3)))

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

    @pytest.mark.parametrize("level", [np.nan, np.inf, -np.inf])
    def test_non_finite_level_rejected(self, level):
        with pytest.raises(ValueError, match="finite"):
            threshold([[0.5]], level)

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

    # Label numbers come from scipy's ndimage.label as they are; this pins its raster order.
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 12), st.sampled_from([4, 8]), st.data())
    def test_labels_equal_a_breadth_first_search(self, h, w, connectivity, data):
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=h * w, max_size=h * w)))
        self.assert_bfs_labels(mask.reshape(h, w), connectivity)

    @pytest.mark.parametrize("connectivity", [4, 8])
    @pytest.mark.parametrize("shape", [(1, 40), (40, 1), (7, 9)])
    @pytest.mark.parametrize("fill", ["empty", "full", "random"])
    def test_labels_of_lines_empty_and_full_masks(self, connectivity, shape, fill):
        mask = {"empty": np.zeros(shape, bool), "full": np.ones(shape, bool),
                "random": np.random.default_rng(7).random(shape) < 0.5}[fill]
        self.assert_bfs_labels(mask, connectivity)

    @staticmethod
    def assert_bfs_labels(mask, connectivity):
        labeling = label_components(mask, connectivity)
        labels, count = bfs_labels(mask, connectivity)
        assert labeling.count == count
        assert labeling.labels.dtype == np.int32 and np.array_equal(labeling.labels, labels)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_labels_equal_ndimage_label(self, connectivity):
        mask = np.random.default_rng(8).random((1024, 1024)) < 0.5
        structure = ndimage.generate_binary_structure(2, 1 if connectivity == 4 else 2)
        labels, count = ndimage.label(mask, structure=structure, output=np.int32)
        labeling = label_components(mask, connectivity)
        assert labeling.count == count and labeling.labels.tobytes() == labels.tobytes()

    def test_a_label_overflow_is_retried_by_ndimage_label(self, monkeypatch):
        # _ni_label raises NeedMoreBits only from 2**31 - 2 pixels; fake it on a small mask.
        mask = np.random.default_rng(9).random((30, 40)) < 0.5
        expected = label_components(mask, 8)
        kernel = grid_module._scipy_extension("scipy.ndimage", "_ni_label")
        label, outputs = kernel._label, []

        def overflow_once(image, structure, output):
            outputs.append(output.dtype)
            if len(outputs) == 1:
                raise kernel.NeedMoreBits()
            return label(image, structure, output)
        monkeypatch.setattr(kernel, "_label", overflow_once)
        labeling = label_components(mask, 8)
        assert outputs == [np.int32, np.int32]  # below 2**31 - 2 pixels ndimage.label keeps int32
        assert labeling.count == expected.count
        assert labeling.labels.dtype == np.int32
        assert np.array_equal(labeling.labels, expected.labels)

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

    def test_negative_sample_names_the_range(self, tmp_path):
        path = tmp_path / "neg.pgm"
        path.write_text("P2\n2 1\n255\n7 -5\n")
        with pytest.raises(GridFormatError, match=r"sample -5 at pixel 1 is outside \[0, 255\]$"):
            load_grid(path)

    @pytest.mark.parametrize("raster, message", [
        ("99999999999999999999 3", "sample 99999999999999999999 at pixel 0 exceeds maxval 255"),
        ("3 -99999999999999999999", r"sample -99999999999999999999 at pixel 1 is outside \[0, 255\]"),
        ("300 99999999999999999999", "sample 300 at pixel 0 exceeds maxval 255"),
        ("99999999999999999999", "expected 2 samples, found 1"),
        ("99999999999999999999 x", "non-integer sample"),
        # int() refuses more than 4300 digits; the message then names no number.
        pytest.param(f"{'9' * 5000} 3", "sample of over 4300 digits at pixel 0 exceeds maxval "
                     "255$", id="5000 digits"),
        pytest.param(f"3 -{'9' * 5000}", r"sample of over 4300 digits at pixel 1 is outside "
                     r"\[0, 255\]$", id="-5000 digits"),
        pytest.param(f"{'0' * 5000}300 -{'9' * 4300}", "sample 300 at pixel 0 exceeds maxval "
                     "255$", id="5000 leading zeros"),
        pytest.param(f"3 -{'9' * 4300}", rf"sample -{'9' * 4300} at pixel 1 is outside",
                     id="-4300 digits"),
    ])
    def test_samples_past_int64_are_out_of_range(self, tmp_path, raster, message):
        path = tmp_path / "big.pgm"
        path.write_text(f"P2\n2 1\n255\n{raster}\n")
        with pytest.raises(GridFormatError, match=message):
            load_grid(path)

    def test_samples_with_leading_zeros_past_the_int_digit_limit(self, tmp_path):
        path = tmp_path / "zeros.pgm"
        path.write_text(f"P2\n2 1\n255\n{'0' * 5000}51 {'0' * 4300}255 \n")
        assert load_grid(path).tolist() == [[0.2, 1.0]]

    @pytest.mark.parametrize("raster", ["5 #3", "5 -", "5\x1c3", "5\x1f 3", "5 3\x00", "5 3.0"])
    def test_hashes_dashes_and_separators_are_non_integer(self, tmp_path, raster):
        path = tmp_path / "odd.pgm"
        path.write_text(f"P2\n2 1\n255\n{raster}\n")
        with pytest.raises(GridFormatError, match="non-integer sample in P2 raster"):
            load_grid(path)

    def test_every_ascii_space_separates_samples(self, tmp_path):
        path = tmp_path / "ws.pgm"
        path.write_bytes(b"P2\n3 2\n255\n\t1 2\r\n3\x0b4\x0c5\r6")
        assert load_grid(path).tolist() == [[1 / 255, 2 / 255, 3 / 255], [4 / 255, 5 / 255, 6 / 255]]

    def test_empty_raster_counts_no_samples(self, tmp_path):
        path = tmp_path / "empty.pgm"
        path.write_text("P2\n2 1\n255\n \n")
        with pytest.raises(GridFormatError, match="expected 2 samples, found 0"):
            load_grid(path)

    def test_peak_memory_of_a_16_bit_p2_load(self, tmp_path):
        # int() per token peaked at 24.3 MiB here (a bytes object per token, then a list
        # of ints); numpy's parser at 16.2 MiB, 13.3 of them inside np.loadtxt.
        path = tmp_path / "g.pgm"
        save_grid_pgm(np.random.default_rng(0).random((512, 512)), path)
        tracemalloc.start()
        try:
            load_grid(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 20 * 2**20

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

    def test_zero_width_rejected(self, tmp_path):
        path = tmp_path / "zero.pgm"
        path.write_text("P2\n0 1\n255\n")
        with pytest.raises(GridFormatError, match="bad PGM dimensions 0x1$"):
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

    @pytest.mark.parametrize("maxval", [0, 70000, -1, 255.5, True, "255"])
    def test_save_rejects_a_maxval_the_loader_rejects(self, tmp_path, maxval):
        path = tmp_path / "g.pgm"
        with pytest.raises(ValueError, match="maxval"):
            save_grid_pgm([[0.5]], path, maxval=maxval)
        assert not path.exists()

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

    @pytest.mark.parametrize("text, line", [
        ("0.1,0.9\n\n0.2,0.8\n", 2), ("0.1,0.9\n \n0.2,0.8\n", 2), ("0.1,0.9\n\t\n", 2),
        ("\n0.1,0.9\n", 1), ("0.1,0.9\n0.2\n\n", 3), ("0.1\n0.2\n\n0.3,x\n", 3),
    ])
    def test_blank_line_is_unparseable(self, tmp_path, text, line):
        path = tmp_path / "g.csv"
        path.write_text(text)
        with pytest.raises(GridFormatError, match=f"line {line}: unparseable cell$"):
            load_grid(path)

    @pytest.mark.parametrize("breaks", ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\u2028"])
    def test_lines_are_split_like_str_splitlines(self, tmp_path, breaks):
        path = tmp_path / "g.csv"
        path.write_text(f"0.5,0.25{breaks}0.3,0.4{breaks}", encoding="utf-8", newline="")
        assert load_grid(path).tolist() == [[0.5, 0.25], [0.3, 0.4]]

    def test_nan_cell_message_shows_a_float(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0.5,nan\n")
        with pytest.raises(GridFormatError) as exc:
            load_grid(path)
        assert str(exc.value) == "value nan at pixel 1 is outside [0, 1]"

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


class TestReadByContent:
    """The first header token, not the file name, picks the reader."""

    @pytest.mark.parametrize("name", ["grid.dat", "grid.pgm", "grid"])
    def test_csv_grid_loads_under_any_name(self, tmp_path, name):
        path = tmp_path / name
        path.write_text("0.25,0.75\n")
        assert load_grid(path).tolist() == [[0.25, 0.75]]

    @pytest.mark.parametrize("name", ["grid.csv", "grid.dat", "grid"])
    @pytest.mark.parametrize("content", [b"P2\n2 1\n255\n0 255\n", b"P5\n2 1\n255\n\x00\xff",
                                         b"# scan\n P2 2 1 255 0 255"])
    def test_pgm_loads_under_any_name(self, tmp_path, name, content):
        path = tmp_path / name
        path.write_bytes(content)
        assert load_grid(path).tolist() == [[0.0, 1.0]]

    @pytest.mark.parametrize("content, message", [
        (b"", "empty CSV grid"),
        (b"\n", "line 1: unparseable cell"),
        (b"255 0\n", "line 1: unparseable cell"),
        (b"# P2\n2 1\n", "line 1: unparseable cell"),
    ])
    def test_pgm_name_without_magic_gets_the_csv_error(self, tmp_path, content, message):
        path = tmp_path / "g.pgm"
        path.write_bytes(content)
        with pytest.raises(GridFormatError, match=rf"g\.pgm: {message}$"):
            load_grid(path)

    @pytest.mark.parametrize("content, message", [
        (b"P3\n1 1\n255\n0 0 0\n", r"not a PGM file \(magic b'P3'\)"),
        (b"P2\n", "truncated PGM header"),
        (b"Pi,0.5\n", "truncated PGM header"),
    ])
    def test_csv_name_with_a_p_gets_the_pgm_error(self, tmp_path, content, message):
        path = tmp_path / "g.csv"
        path.write_bytes(content)
        with pytest.raises(GridFormatError, match=rf"g\.csv: {message}$"):
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

    @pytest.mark.parametrize("maxval", [0, 70000, -1, 255.5, True, "255"])
    def test_save_rejects_a_maxval_the_loader_rejects(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        with pytest.raises(ValueError, match="maxval"):
            save_mask_pgm([[True, False]], path, maxval=maxval)
        assert not path.exists()

    @pytest.mark.parametrize("maxval", [1, np.int64(7), 65535])
    def test_every_valid_maxval_round_trips(self, tmp_path, maxval):
        path = tmp_path / "m.pgm"
        save_mask_pgm([[True, False]], path, maxval=maxval)
        assert load_mask_pgm(path).tolist() == [[True, False]]


# SHA-256 of the P2 files the writers make for seeded random grids, recorded with the
# writer that joined each 16-sample line in Python.
FROZEN_PGM_DIGESTS = {
    "grid16/1x1": "311cfb55eed004501736db8a731de31f06137f6d10b4f991ed3997a04f100673",
    "grid8/1x1": "4da7561ba015db6ccdc19161481f375af700da7234e462edefffb0713e41cc8a",
    "mask/1x1": "fb497549cb6f218e02c61ef46d1b96906e50c8148153b42f481b18d9c48c415b",
    "grid16/1x15": "f68823e0fdcf3b00981fb0d1387eeedb6c4940f3a2d436da649224668b1788db",
    "grid8/1x15": "c0b17227a203a4ab6795c8c2f3d7803bbb71458a01457dfe74416f6fe43bb9e5",
    "mask/1x15": "c6bfea13c75f0a3cf2154fe9b21d182fd285124d3807030291377ccaae21e034",
    "grid16/1x16": "0def1b5d3d6f245e7f31776a0361099833b43baa314bf773272eabbcba20f070",
    "grid8/1x16": "8e6e3cf75bd2fe06d3582ff1e7d0adc0dbd0cfb484d9ed634aab16a8819bebc7",
    "mask/1x16": "ad44edcdbd9ad73a8a8fb6169b90222ad9f03587ef0d2d0175542d3cc2c5e2a2",
    "grid16/1x17": "578d6a42a5a72b739d18c0a9e4c178f86a3d337fa1b36e1cba55485099d2d531",
    "grid8/1x17": "f68d513e38f53bd453733aa2effda3c293a0e58d103d3f1893313cc3c010cff0",
    "mask/1x17": "66d8ecfb8b0c5dbc520ec0ad8b28b7cba1cc7335f70f2863f923a5cd6b9729ae",
    "grid16/4x4": "d321b82230363890765e862c342237d025f7a1a4876924b65614407724f8ba20",
    "grid8/4x4": "f62f3382b9bc59d89ad5cf656625aad08cd271fb44e00cb04302abb9e612f0cb",
    "mask/4x4": "9ca84d926d97c6be3aa2454c3d0db36809f4d166e5395a246e9c6319b6a5f42a",
    "grid16/3x7": "c3b3d2fcb92bc1cf1eb8ac9465371618008ea10c5616a1e16a179f29d67c8be6",
    "grid8/3x7": "b853e42a194819158f6cb4a651b8550b7d0744500d966f401546a216ed5e259b",
    "mask/3x7": "b45351ca4858ba8072b1e40935cbd057e09109b9fec65381d5c306d7a2827696",
    "grid16/33x31": "b5c9434bf91d9119ccf64052d0174fca37abaef831e77903456f00b7d631297a",
    "grid8/33x31": "f4268809b9b9f3c6878f6ed8303ba0b74fe2ed0f7912c5ecaf813b3948f78a40",
    "mask/33x31": "75770348a4087bd5e5867e516595eaa51df8ac3be5bf3162297e489d7721b741",
    "grid16/1024x1024": "6d758e080cd86d31edf496dce84a8623ab8beea990f8a71bd6e4a5dfea781316",
    "grid8/1024x1024": "f1511a8b3b7c13b19e3d0a573b43b740e35186e97d985079c8722a572b2ea06f",
    "mask/1024x1024": "9120d18b9eb692b564ad0068289c47b610cb7e527c875ad4833159fcdd3e728d",
}


class TestFrozenBytes:
    @pytest.mark.parametrize("case", FROZEN_PGM_DIGESTS)
    def test_pgm_writer_digest(self, case, tmp_path):
        writer, shape = case.split("/")
        h, w = map(int, shape.split("x"))
        grid = np.random.default_rng(h * 10007 + w).uniform(0.0, 1.0, (h, w))
        path = tmp_path / "out.pgm"
        if writer == "mask":
            save_mask_pgm(grid < 0.5, path)
        else:
            save_grid_pgm(grid, path, 65535 if writer == "grid16" else 255)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == FROZEN_PGM_DIGESTS[case]


def parse_text(lines, **kwargs):
    """np.loadtxt as the P2 and CSV grid readers call it, with no comment character."""
    return np.loadtxt(lines, comments=None, **kwargs)


class TestNumpyGrammar:
    """What numpy's parser does with the forms the loaders used to scan for by hand."""

    @pytest.mark.parametrize("token", ["1_0", "\u0665", "\uff15", "99999999999999999999",
                                       "-9223372036854775809", "5.0", "0x10"])
    def test_rejects_separators_non_ascii_digits_and_int64_overflow(self, token):
        with pytest.raises(ValueError):
            parse_text([token], dtype=np.int64)

    @pytest.mark.parametrize("cell", ["0.2_5", "1_0e-1", "\u0660.\u0665", "0.\uff15", "0x1p-1"])
    def test_rejects_float_separators_and_non_ascii_digits(self, cell):
        with pytest.raises(ValueError):
            parse_text([cell], delimiter=",")

    def test_reads_a_plus_sign_so_the_p2_scan_for_it_stays(self):
        assert parse_text(["+5"], dtype=np.int64, ndmin=1).tolist() == [5]

    def test_strips_non_ascii_spaces_so_the_ascii_check_stays(self):
        assert parse_text(["\u00a00.5"], delimiter=",", ndmin=1).tolist() == [0.5]

    def test_skips_empty_lines_so_the_row_count_is_checked(self):
        assert parse_text(["0.5", "", "0.25"], delimiter=",").tolist() == [0.5, 0.25]

    def test_splits_at_unit_separators_that_int_does_not(self):
        assert parse_text(["5\x1c6"], dtype=np.int64).tolist() == [5, 6]
        with pytest.raises(ValueError):
            int(b"5\x1c6")

    # So strict_float and strict_int, the diagram CSV's parsers, need no check for them.
    @pytest.mark.parametrize("separator", ["\x1c", "\x1d", "\x1e", "\x1f"])
    @pytest.mark.parametrize("parse", [float, int])
    @pytest.mark.parametrize("form", ["{}5", "5{}", "5{}6", " {}5 "])
    def test_float_and_int_reject_unit_separators_around_a_number(self, separator, parse, form):
        assert separator.isspace()  # str.split() splits at it; float() and int() do not strip it
        with pytest.raises(ValueError):
            parse(form.format(separator))

    def test_no_rows_give_an_empty_array(self):
        with pytest.warns(UserWarning, match="input contained no data"):  # an empty P2 raster
            assert parse_text([], delimiter=",").size == 0

    # So a CSV grid line, once it is not empty, cannot reach that warning.
    @pytest.mark.parametrize("line", [" ", "\t", " \t ", "\v", "\f", " , "])
    def test_rejects_a_whitespace_only_line(self, line):
        with pytest.raises(ValueError):
            parse_text([line], delimiter=",", ndmin=1)


def _outcome(read, content: bytes, suffix: str):
    """read's result on a file holding content, or its exception as (type name, message)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / ("f" + suffix)
        path.write_bytes(content)
        try:
            return read(path)
        except (GridFormatError, OverflowError) as exc:
            return type(exc).__name__, str(exc).replace(str(path), "F")


P2_TOKENS = ["0", "007", "-0", "-5", "+5", "300", "65535", "9223372036854775807",
             "9223372036854775808", "99999999999999999999", "-99999999999999999999",
             "#", "#5", "-", "1_0", "\u0665", "5.0", "x", "\x00"]
P2_SPACES = [" ", "  ", "\t", "\n", "\r", "\r\n", "\v", "\f", "\x1c", "\x1f"]


@st.composite
def p2_files(draw):
    w, h = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([1, 255, 65535]))
    count = w * h + draw(st.sampled_from([0, 0, 0, -1, 1]))
    sample = st.integers(0, maxval).map(str)
    if not draw(st.booleans()):
        sample = st.one_of(sample, st.sampled_from(P2_TOKENS))
    tokens = draw(st.lists(sample, min_size=count, max_size=count))
    space = st.sampled_from(P2_SPACES)
    raster = draw(space) + "".join(t + draw(space) for t in tokens)
    after_maxval = draw(st.sampled_from(["\n", " ", "\t", "#c\n"]))
    return f"P2 # x\n{w} {h}\n{maxval}{after_maxval}{raster}".encode()


CSV_CELLS = ["0.5", " 0.5 ", "\t0.25", "0.1\x1f", "1", "0", "-0.0", "+0.5", ".5", "5.", "1e-3",
             "1E-3", "nan", "-nan", "inf", "-Infinity", "1.5", "", " ", "0.2_5", "\u0660.\u0665",
             "0.5\u00a0", "0x1p-1", "1d-1", "x", '"0.5"', "0.5\x00"]
CSV_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
              "\n\n", "\n \n"]


@st.composite
def csv_files(draw):
    clean = draw(st.booleans())
    cell = st.one_of(st.floats(0, 1).map(repr), st.floats(0, 1).map("{:.17g}".format))
    if not clean:
        cell = st.one_of(cell, st.sampled_from(CSV_CELLS))
    width = draw(st.integers(1, 4))
    widths = st.just(width) if clean or draw(st.booleans()) else st.integers(1, 4)
    rows = draw(st.lists(widths.flatmap(lambda k: st.lists(cell, min_size=k, max_size=k)),
                         min_size=0 if not clean else 1, max_size=4))
    breaks = st.sampled_from(["\n", "\r\n"] if clean else CSV_BREAKS)
    text = "".join(",".join(row) + draw(breaks) for row in rows)
    return text.encode("utf-8")


class TestAgainstTheOldParsers:
    """numpy's parser gives the bits and the messages int() and float() gave.

    The intended differences: a P2 sample past int64 is out of range (int64 overflow
    raised OverflowError), and a negative sample is outside [0, maxval] (it said
    "exceeds maxval").
    """

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(p2_files())
    def test_p2_rasters(self, content):
        new = _outcome(lambda p: grid_module._read_pgm_samples(p, p.read_bytes()), content, ".pgm")
        old = _outcome(reference_pgm_samples, content, ".pgm")
        event("loaded" if isinstance(old[0], np.ndarray) else old[0])
        if isinstance(old, tuple) and isinstance(old[0], np.ndarray):
            assert isinstance(new[0], np.ndarray) and new[0].dtype == np.int64
            assert (new[0].shape, new[0].tobytes(), new[1]) == (old[0].shape, old[0].tobytes(), old[1])
        elif old[0] == "OverflowError":
            assert new[0] == "GridFormatError"
            assert re.fullmatch(r"F: (sample -?\d+ at pixel \d+ (exceeds maxval|is outside).*"
                                r"|expected \d+ samples, found \d+)", new[1])
        else:
            wording = re.sub(r"(sample -\d+ at pixel \d+) exceeds maxval (\d+)",
                             r"\1 is outside [0, \2]", old[1])
            assert new == (old[0], wording)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(csv_files())
    def test_csv_grids(self, content):
        new = _outcome(lambda p: grid_module._read_csv_grid(p, p.read_bytes()), content, ".csv")
        old = _outcome(reference_csv_grid, content, ".csv")
        event("loaded" if isinstance(old, np.ndarray) else old[0])
        if isinstance(old, np.ndarray):
            assert isinstance(new, np.ndarray)
            assert (new.dtype, new.shape, new.tobytes()) == (old.dtype, old.shape, old.tobytes())
        else:
            assert new == old
