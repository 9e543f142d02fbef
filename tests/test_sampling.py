import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from strokegen.geometry import Polyline
from strokegen.sampling import (
    GenerationResult,
    SamplerConfig,
    center_polylines,
    generate_images,
    make_init_vector,
    render_svg,
    top_k_distribution,
    top_k_ids,
    top_k_sample,
)
from strokegen.svgout import line_chart_svg
from strokegen.tokenizer import IMAGE_END, build_vocabulary


class TestTopKSample:
    def test_k1_is_argmax(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            logits = rng.standard_normal(30)
            pick = top_k_sample(logits, 1, rng)
            assert pick == int(np.argmax(logits))

    def test_closed_form_renormalization(self):
        logits = np.array([3.0, 2.0, -5.0])
        rng = np.random.default_rng(1)
        draws = np.array([top_k_sample(logits, 2, rng) for _ in range(20_000)])
        p0 = math.e / (math.e + 1.0)  # 0.7311
        assert np.mean(draws == 0) == pytest.approx(p0, abs=0.01)
        assert np.mean(draws == 1) == pytest.approx(1.0 - p0, abs=0.01)
        assert not np.any(draws == 2)  # excluded token: probability exactly 0

    def test_never_leaves_top_k_set(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            logits = rng.standard_normal(20)
            k = int(rng.integers(1, 21))
            top = set(np.argsort(-logits, kind="stable")[:k].tolist())
            assert top_k_sample(logits, k, rng) in top

    def test_tie_at_kth_prefers_lower_id(self):
        logits = np.array([1.0, 0.5, 0.5, 0.0])
        rng = np.random.default_rng(3)
        draws = {top_k_sample(logits, 2, rng) for _ in range(500)}
        assert draws == {0, 1}

    def test_k_equals_v_matches_full_softmax(self):
        rng = np.random.default_rng(4)
        logits = rng.standard_normal(10)
        n = 100_000
        draws = np.array([top_k_sample(logits, 10, rng) for _ in range(n)])
        counts = np.bincount(draws, minlength=10)
        z = logits - logits.max()
        probs = np.exp(z) / np.exp(z).sum()
        chi2 = float(np.sum((counts - n * probs) ** 2 / (n * probs)))
        # dof=9; chi2 below the 0.01 critical value 21.666 means p > 0.01
        assert chi2 < 21.666

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            top_k_sample(np.zeros(5), 0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            top_k_sample(np.zeros(5), 6, np.random.default_rng(0))

    def test_distribution_invariants(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = int(rng.integers(2, 40))
            logits = rng.standard_normal(v) * 3.0
            k = int(rng.integers(1, v + 1))
            probs = top_k_distribution(logits, k)
            top = set(np.argsort(-logits, kind="stable")[:k].tolist())
            excluded = [i for i in range(v) if i not in top]
            assert all(probs[i] == 0.0 for i in excluded)
            assert abs(probs.sum() - 1.0) < 1e-12

    def test_ids_and_draws_equal_the_full_stable_argsort(self):
        def argsort_distribution(logits, k):  # the selection it replaces
            top = np.argsort(-logits, kind="stable")[:k]
            weights = np.exp(logits[top] - logits[top].max())
            probs = np.zeros_like(logits)
            probs[top] = weights / weights.sum()
            return probs

        rng = np.random.default_rng(7)
        cases = [(rng.standard_normal(1921), k) for k in (1, 10, 1921)]
        for _ in range(300):  # small integer logits: ties at the k-th one
            v = int(rng.integers(1, 40))
            cases.append((rng.integers(-3, 3, v).astype(np.float64),
                          int(rng.integers(1, v + 1))))
        cases += [(np.array([0.0, np.nan, 2.0, -np.inf, 2.0, np.inf, -0.0]),
                   k) for k in range(1, 8)]
        for logits, k in cases:
            expected = np.argsort(-logits, kind="stable")[:k]
            np.testing.assert_array_equal(top_k_ids(logits, k), expected)
            if np.isfinite(logits).all():
                assert np.array_equal(top_k_distribution(logits, k),
                                      argsort_distribution(logits, k))
                draws = np.random.default_rng(k), np.random.default_rng(k)
                assert (top_k_sample(logits, k, draws[0])
                        == int(draws[1].choice(len(logits),
                               p=argsort_distribution(logits, k))))

    def test_draw_among_k_ids_equals_the_full_vocabulary_draw(self):
        def full_draw(logits, k, rng):  # the draw it replaces
            probs = top_k_distribution(logits, k)
            return int(rng.choice(len(probs), p=probs))

        rng = np.random.default_rng(8)
        cases = [(rng.standard_normal(1921).astype(np.float32), k)
                 for k in (1, 10, 1921)]
        # ties at the k-th logit, and top-k weights that underflow to 0
        cases += [(np.array([1.0, 0.5, 0.5, 0.0]), 2),
                  (np.array([0.0, -800.0, 5.0, -800.0, 5.0]), 4)]
        for _ in range(100):  # small integer logits: ties at the k-th one
            v = int(rng.integers(1, 40))
            logits = rng.integers(-3, 3, v).astype(np.float64)
            cases += [(logits, k) for k in (1, int(rng.integers(1, v + 1)), v)]
        for logits, k in cases:
            ours, theirs = np.random.default_rng(k), np.random.default_rng(k)
            for _ in range(10):
                assert (top_k_sample(logits, k, ours)
                        == full_draw(logits, k, theirs))
            assert ours.bit_generator.state == theirs.bit_generator.state

    def test_k_equals_v_distribution_is_full_softmax(self):
        rng = np.random.default_rng(6)
        logits = rng.standard_normal(12)
        z = logits - logits.max()
        full = np.exp(z) / np.exp(z).sum()
        assert np.allclose(top_k_distribution(logits, 12), full, atol=1e-15)


class TestMakeInitVector:
    @pytest.fixture
    def vocab(self):
        return build_vocabulary([[IMAGE_END]], max_len=3)

    def test_length_one_is_just_image_end(self, vocab):
        out = make_init_vector(1, vocab, np.random.default_rng(0))
        assert out == [vocab.image_end_id]

    def test_always_ends_with_image_end(self, vocab):
        rng = np.random.default_rng(1)
        for n in (1, 2, 5, 17):
            out = make_init_vector(n, vocab, rng)
            assert len(out) == n
            assert out[-1] == vocab.image_end_id
            assert all(i < vocab.n_regular for i in out[:-1])

    def test_deterministic(self, vocab):
        a = make_init_vector(9, vocab, np.random.default_rng(7))
        b = make_init_vector(9, vocab, np.random.default_rng(7))
        assert a == b


class TestGenerateImage:
    def test_greedy_fixed_seed_deterministic(self, micro_ckpt):
        cfg = SamplerConfig(k=1, seed=3)
        a = generate_images(micro_ckpt, cfg, 1)[0]
        b = generate_images(micro_ckpt, cfg, 1)[0]
        assert a.token_ids == b.token_ids
        assert a.hit_cap == b.hit_cap

    def test_image_end_only_as_terminator(self, micro_ckpt):
        end = micro_ckpt.vocab.image_end_id
        for seed in range(6):
            res = generate_images(micro_ckpt, SamplerConfig(k=5, seed=seed),
                                  1)[0]
            body = res.token_ids[:-1]
            assert end not in body
            if not res.hit_cap:
                assert res.token_ids[-1] == end

    def test_cap_flagged_in_metadata(self, micro_ckpt):
        results = generate_images(
            micro_ckpt, SamplerConfig(k=10, max_moves=1, seed=0), 20
        )
        end = micro_ckpt.vocab.image_end_id
        for r in results:
            assert r.hit_cap == (not r.token_ids or r.token_ids[-1] != end)
            meta = r.metadata()
            assert meta["hit_cap"] == r.hit_cap
            assert meta["move_count"] == len(r.token_ids) == 1
            assert meta["seconds_per_token"] == r.seconds_per_token > 0
        assert any(r.hit_cap for r in results)

    def test_long_generation_respects_window(self, micro_ckpt):
        # would raise inside encoder_forward if the context ever exceeded L
        L = micro_ckpt.model.seq_len
        res = generate_images(
            micro_ckpt, SamplerConfig(k=10, max_moves=3 * L, init_len=L, seed=1),
            1)[0]
        assert len(res.token_ids) <= 3 * L

    def test_count_and_determinism_of_batch(self, micro_ckpt):
        cfg = SamplerConfig(k=3, seed=9)
        a = generate_images(micro_ckpt, cfg, 5)
        b = generate_images(micro_ckpt, cfg, 5)
        assert [r.token_ids for r in a] == [r.token_ids for r in b]

    def test_parallel_matches_serial(self, micro_ckpt):
        cfg = SamplerConfig(k=3, seed=4, max_moves=20)
        serial = generate_images(micro_ckpt, cfg, 4)
        parallel = generate_images(micro_ckpt, cfg, 4, jobs=2)
        assert [r.token_ids for r in serial] == [r.token_ids for r in parallel]

    def test_negative_count_rejected(self, micro_ckpt):
        with pytest.raises(ValueError, match="count must be >= 0"):
            generate_images(micro_ckpt, SamplerConfig(k=3), -1)

    @pytest.mark.parametrize("jobs", [0, -2])
    def test_jobs_below_one_rejected(self, micro_ckpt, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            generate_images(micro_ckpt, SamplerConfig(k=3), 2, jobs=jobs)

    def test_k_exceeding_vocab_rejected(self, micro_ckpt):
        with pytest.raises(ValueError):
            generate_images(
                micro_ckpt, SamplerConfig(k=micro_ckpt.vocab.size + 1), 1
            )

    @pytest.mark.parametrize("count, jobs", [(0, 1), (3, 2)])
    def test_k_exceeding_vocab_rejected_before_sampling(self, micro_ckpt,
                                                        count, jobs):
        k = micro_ckpt.vocab.size + 1
        with pytest.raises(ValueError, match=f"k={k} exceeds vocabulary size "
                                             f"{micro_ckpt.vocab.size}"):
            generate_images(micro_ckpt, SamplerConfig(k=k), count, jobs=jobs)


class TestCenterPolylines:
    def test_bbox_lands_on_canvas_center(self):
        polys = [
            Polyline(np.array([[1000.0, -500.0], [1040.0, -500.0]])),
            Polyline(np.array([[1000.0, -470.0], [1040.0, -470.0]])),
        ]
        out = center_polylines(polys, 180.0)
        pts = np.concatenate([p.points for p in out])
        center = (pts.min(axis=0) + pts.max(axis=0)) / 2.0
        assert np.allclose(center, [90.0, 90.0])
        # translation only: spans preserved exactly
        assert pts[:, 0].max() - pts[:, 0].min() == 40.0

    def test_empty_input(self):
        assert center_polylines([], 180.0) == []


class TestRenderSvg:
    def test_single_polyline_path_element(self):
        poly = Polyline(np.array([[0.0, 0.0], [10.0, 0.0]]))
        svg = render_svg([[poly]])
        assert 'd="M 0 0 L 10 0"' in svg
        ET.fromstring(svg)  # well-formed XML

    def test_empty_image_valid_document(self):
        svg = render_svg([[]])
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "<path" not in svg

    def test_grid_layout_arithmetic(self):
        images = [[Polyline(np.array([[0.0, 0.0], [5.0, 5.0]]))]
                  for _ in range(7)]
        svg = render_svg(images, columns=3, boundary=180.0)
        cells = re.findall(r'<svg x="([\d.]+)" y="([\d.]+)"', svg)
        assert len(cells) == 7
        coords = {(float(x), float(y)) for x, y in cells}
        assert len(coords) == 7  # no two cells share a position
        rows = {y for _, y in coords}
        assert len(rows) == math.ceil(7 / 3)
        # cells are spaced a full cell apart: no viewbox overlap
        xs = sorted({x for x, _ in coords})
        assert all(b - a >= 180.0 for a, b in zip(xs, xs[1:]))

    def test_random_coloring_is_deterministic(self):
        poly = [Polyline(np.array([[0.0, 0.0], [5.0, 5.0]]))] * 3
        a = render_svg([poly], color_seed=5)
        b = render_svg([poly], color_seed=5)
        assert a == b
        assert len(set(re.findall(r'stroke="(#\w{6})"', a))) > 1

    @pytest.mark.parametrize("kwargs, side", [({}, "180"),
                                              ({"boundary": 300.0}, "300")])
    def test_canvas_is_the_default_or_the_given_boundary(self, kwargs, side):
        poly = Polyline(np.array([[0.0, 0.0], [5.0, 5.0]]))
        root = ET.fromstring(render_svg([[poly], []], **kwargs))
        cells = root.findall("{http://www.w3.org/2000/svg}svg")
        assert [(c.get("width"), c.get("viewBox")) for c in cells] == [
            (side, f"0 0 {side} {side}")] * 2


class TestLineChart:
    def test_series_rendered(self):
        svg = line_chart_svg(
            {"train": [3.0, 2.0, 1.5], "heldout": [3.2, 2.5, 2.2]},
            title="loss",
        )
        ET.fromstring(svg)
        assert svg.count("<polyline") == 2
        assert "train" in svg and "heldout" in svg

    def test_flat_series_no_crash(self):
        ET.fromstring(line_chart_svg({"x": [1.0, 1.0]}))
