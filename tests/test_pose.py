"""Skeleton model, rasterization, and retargeting oracles."""

import numpy as np
import pytest

from puppetflow.rasterize import LIMB_PALETTE, rasterize_sequence
from puppetflow.retarget import (
    RetargetParams,
    anchor_point,
    compute_sequence_params,
    retarget_sequence,
    retarget_skeleton,
)
from puppetflow.skeleton import (
    N_JOINTS,
    N_LIMBS,
    ROOT,
    TOPOLOGY,
    Skeleton,
    load_pose_sequence,
    save_pose_sequence,
)
from puppetflow.tensor import ConfigError, ShapeError


def random_skeleton(seed=0, scale=100.0, origin=(128.0, 128.0)):
    rng = np.random.default_rng(seed)
    pts = origin + rng.standard_normal((N_JOINTS, 2)) * scale * 0.3
    return Skeleton(pts, np.ones(N_JOINTS))


class TestSkeletonModel:
    def test_topology_is_spanning_tree(self):
        # retarget_skeleton places joints in TOPOLOGY order, so every parent
        # must be placed (the root, or an earlier child) before its children
        placed = {ROOT}
        for p, c in TOPOLOGY:
            assert p in placed and c not in placed
            placed.add(c)
        assert placed == set(range(N_JOINTS))
        assert len(TOPOLOGY) == N_JOINTS - 1

    def test_limb_lengths_match_euclid(self):
        sk = random_skeleton(1)
        lens = sk.limb_lengths()
        for i, (p, c) in enumerate(TOPOLOGY):
            assert lens[i] == pytest.approx(np.linalg.norm(sk.joints[c] - sk.joints[p]))
        assert (lens >= 0).all()

    def test_low_confidence_hides_limbs(self):
        sk = random_skeleton(2)
        sk.confidence[9] = 0.1  # left wrist below threshold
        vis = sk.limb_visible()
        idx = TOPOLOGY.index((7, 9))
        assert not vis[idx]
        assert vis.sum() == N_LIMBS - 1


class TestSkeletonFile:
    def test_round_trip_bit_exact(self, tmp_path):
        seq = [random_skeleton(s) for s in range(4)]
        p = tmp_path / "seq.skel"
        save_pose_sequence(p, seq)
        back = load_pose_sequence(p)
        assert len(back) == 4
        for a, b in zip(seq, back):
            assert np.array_equal(a.joints, b.joints)
            assert np.array_equal(a.confidence, b.confidence)

    def test_header_line(self, tmp_path):
        p = tmp_path / "one.skel"
        save_pose_sequence(p, [random_skeleton()])
        first = p.read_text().splitlines()[0]
        assert first == "SKEL v1 joints=17 frames=1"
        second = p.read_text().splitlines()[1]
        assert second.split()[0] == "11:12"


class TestSkeletonFileErrors:
    def saved(self, tmp_path, frames=2):
        p = tmp_path / "seq.skel"
        save_pose_sequence(p, [random_skeleton(s) for s in range(frames)])
        return p, p.read_text()

    def assert_rejected(self, p, text):
        p.write_text(text)
        with pytest.raises(ShapeError) as err:
            load_pose_sequence(p)
        assert str(p) in str(err.value)

    def test_empty_file_raises(self, tmp_path):
        p, _ = self.saved(tmp_path)
        self.assert_rejected(p, "")

    def test_header_cut_at_every_character(self, tmp_path):
        p, text = self.saved(tmp_path)
        header = text.splitlines(keepends=True)[0]
        for cut in range(len(header) + 1):
            self.assert_rejected(p, header[:cut])

    def test_body_cut_at_every_row_boundary(self, tmp_path):
        p, text = self.saved(tmp_path)
        lines = text.splitlines(keepends=True)
        for n in range(1, len(lines)):
            self.assert_rejected(p, "".join(lines[:n]))
            self.assert_rejected(p, "".join(lines[:n]).rstrip("\n"))

    def test_body_cut_mid_row(self, tmp_path):
        # Every cut from the edge list on, up to the start of the last number:
        # a cut inside the last number still parses, as the docstring says.
        p, text = self.saved(tmp_path)
        start = len(text.splitlines(keepends=True)[0])
        for cut in range(start, text.rindex(",") + 1):
            self.assert_rejected(p, text[:cut])

    @pytest.mark.parametrize(
        "edges",
        [TOPOLOGY[:-1], TOPOLOGY[:-1] + ((4, 2),), TOPOLOGY[:-1] + ((2, N_JOINTS),), TOPOLOGY[1:] + TOPOLOGY[:1]],
        ids=["short", "cycle", "unknown-joint", "permuted"],
    )
    def test_edge_line_other_than_topology_raises(self, tmp_path, edges):
        p, text = self.saved(tmp_path)
        lines = text.splitlines(keepends=True)
        lines[1] = " ".join(f"{a}:{b}" for a, b in edges) + "\n"
        self.assert_rejected(p, "".join(lines))

    @pytest.mark.parametrize(
        "header",
        ["SKEL v1 joints=x17 frames=2", "SKEL v1 joints=17 frames=x3", "SKEL v1 joints=17 frames=1.5",
         "SKEL v1 joints= frames=2", "SKEL v1 joints=17 frames=-1", "SKEL v1 joints=16 frames=2"],
    )
    def test_bad_header_values_raise(self, tmp_path, header):
        p, text = self.saved(tmp_path)
        self.assert_rejected(p, header + text[text.index("\n"):])


class TestRasterize:
    def test_off_canvas_is_black(self):
        sk = random_skeleton(4)
        sk.joints += 10_000.0
        img = rasterize_sequence([sk], 64, 64)
        assert img.data.max() == 0.0

    def test_deterministic(self):
        sk = random_skeleton(5)
        a = rasterize_sequence([sk], 96, 96).data[0]
        b = rasterize_sequence([sk], 96, 96).data[0]
        assert np.array_equal(a, b)

    def test_limb_colors_unique(self):
        assert len({tuple(np.round(c, 6)) for c in LIMB_PALETTE}) == N_LIMBS
        assert not LIMB_PALETTE.flags.writeable

    def test_shift_equivariance(self):
        sk = random_skeleton(6, origin=(100.0, 100.0))
        sk.joints = np.round(sk.joints * 4) / 4  # exactly representable coords
        d = 16
        base = rasterize_sequence([sk], 256, 256).data[0]
        moved = sk.copy()
        moved.joints += d
        shifted = rasterize_sequence([moved], 256, 256).data[0]
        np.testing.assert_allclose(base[:, 32:200, 32:200], shifted[:, 32 + d : 200 + d, 32 + d : 200 + d], atol=1e-6)

    def test_hidden_limbs_not_drawn(self):
        sk = random_skeleton(7)
        full = rasterize_sequence([sk], 128, 128).data[0]
        sk2 = sk.copy()
        sk2.confidence[:] = 0.0
        assert rasterize_sequence([sk2], 128, 128).data[0].max() == 0.0
        assert full.max() > 0.0

    def test_empty_sequence_raises(self):
        with pytest.raises(ShapeError, match="no skeletons"):
            rasterize_sequence([], 64, 64)

    @pytest.mark.parametrize("hw", [(0, 64), (64, 0)])
    def test_frame_of_no_pixels_raises(self, hw):
        with pytest.raises(ConfigError, match="no pixel"):
            rasterize_sequence([random_skeleton(9)], *hw)

    @pytest.mark.parametrize("hw", [(16.5, 16), (16, 16.0)])
    def test_non_integer_frame_size_raises(self, hw):
        with pytest.raises(ConfigError, match="not whole"):
            rasterize_sequence([random_skeleton(9)], *hw)

    def test_zero_length_limb_draws_disc(self):
        sk = random_skeleton(8)
        sk.joints[:] = (64.0, 64.0)
        img = rasterize_sequence([sk], 128, 128).data[0]
        assert img.max() > 0.0
        assert (img[:, :50, :] == 0).all()


class TestRetargetParams:
    def test_identity_pair(self):
        sk = random_skeleton(9)
        params = compute_sequence_params(sk, [sk], "full_body")
        np.testing.assert_array_equal(params.ratios, np.ones(N_LIMBS))
        np.testing.assert_array_equal(params.offset, np.zeros(2))
        assert params.is_identity()

    def test_uniform_double_gives_half(self):
        ref = random_skeleton(10)
        drive = Skeleton(ref.joints * 2.0, ref.confidence.copy())
        params = compute_sequence_params(ref, [drive], "full_body")
        np.testing.assert_allclose(params.ratios, 0.5, atol=1e-12)

    def test_geometric_oracle_random_pairs(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            ref = random_skeleton(100 + trial)
            drive = random_skeleton(200 + trial)
            params = compute_sequence_params(ref, [drive], "half_body")
            for i, (p, c) in enumerate(TOPOLOGY):
                expect = np.linalg.norm(ref.joints[c] - ref.joints[p]) / np.linalg.norm(
                    drive.joints[c] - drive.joints[p]
                )
                assert params.ratios[i] == pytest.approx(expect, rel=1e-12)

    def test_degenerate_drive_limb(self):
        ref = random_skeleton(12)
        drive = random_skeleton(13)
        drive.joints[15] = drive.joints[13]  # left shin collapses
        params = compute_sequence_params(ref, [drive], "full_body")
        idx = TOPOLOGY.index((13, 15))
        assert params.ratios[idx] == 1.0
        assert len(params.warnings) == 1
        others = [i for i in range(N_LIMBS) if i != idx]
        assert (params.ratios[others] != 1.0).all()

    def test_anchor_selection(self):
        sk = random_skeleton(14)
        ankles, shoulders = sk.joints[[15, 16]].mean(axis=0), sk.joints[[5, 6]].mean(axis=0)
        np.testing.assert_allclose(anchor_point(sk, "full_body"), ankles, atol=1e-12)
        np.testing.assert_allclose(anchor_point(sk, "half_body"), shoulders, atol=1e-12)
        np.testing.assert_allclose(anchor_point(sk, "portrait"), shoulders, atol=1e-12)
        with pytest.raises(ConfigError):
            anchor_point(sk, "wide")
        with pytest.raises(ConfigError):
            compute_sequence_params(sk, [sk], "wide")


class TestRetargetSequence:
    def test_identity_is_bit_exact_noop(self):
        seq = [random_skeleton(s) for s in range(3)]
        params = compute_sequence_params(seq[0], [seq[0]], "full_body")
        out = retarget_sequence(seq, params)
        for a, b in zip(seq, out):
            assert np.array_equal(a.joints, b.joints)

    def test_lengths_and_directions_oracle(self):
        # 100 random pairs: limb lengths scale by r, directions preserved.
        rng = np.random.default_rng(16)
        for trial in range(100):
            ref = random_skeleton(1000 + trial)
            drive = random_skeleton(2000 + trial)
            params = compute_sequence_params(ref, [drive], "full_body")
            out = retarget_skeleton(drive, params)
            ref_len = ref.limb_lengths()
            for i, (p, c) in enumerate(TOPOLOGY):
                v_new = out.joints[c] - out.joints[p]
                v_old = drive.joints[c] - drive.joints[p]
                assert np.linalg.norm(v_new) == pytest.approx(ref_len[i], abs=1e-9)
                cos = v_new @ v_old / (np.linalg.norm(v_new) * np.linalg.norm(v_old))
                assert cos >= 1.0 - 1e-12

    def test_anchor_lands_on_translated_position(self):
        ref = random_skeleton(17)
        seq = [random_skeleton(3000 + s) for s in range(5)]
        params = compute_sequence_params(ref, seq, "portrait")
        out = retarget_sequence(seq, params)
        for orig, new in zip(seq, out):
            expect = anchor_point(orig, "portrait") + params.offset
            np.testing.assert_allclose(anchor_point(new, "portrait"), expect, atol=1e-9)

    def test_commutes_with_global_translation(self):
        ref = random_skeleton(18)
        drive = random_skeleton(19)
        params = compute_sequence_params(ref, [drive], "full_body")
        out_a = retarget_skeleton(drive, params).joints
        moved = drive.copy()
        moved.joints += (37.0, -12.0)
        out_b = retarget_skeleton(moved, params).joints
        np.testing.assert_allclose(out_b, out_a + (37.0, -12.0), atol=1e-9)

    def test_idempotent_with_identity_params(self):
        drive = random_skeleton(20)
        ident = RetargetParams(np.ones(N_LIMBS), "full_body", np.zeros(2))
        once = retarget_skeleton(drive, ident)
        twice = retarget_skeleton(once, ident)
        assert np.array_equal(once.joints, twice.joints)

    def test_sequence_median_pools_ratios(self):
        ref = random_skeleton(21)
        frames = []
        for s in [1.0, 2.0, 4.0]:  # drive limb lengths vary; median picks 2.0
            sk = Skeleton(ref.joints * s, ref.confidence.copy())
            frames.append(sk)
        params = compute_sequence_params(ref, frames, "full_body")
        np.testing.assert_allclose(params.ratios, 0.5, atol=1e-12)
