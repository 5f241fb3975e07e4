"""The three digests of tools/render_digest.py, pinned.

A change to drawing, rasterizing or retargeting that moves a single output
bit fails here. Where a change means to move them, record the new lines
here together with the reason.
"""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import render_digest  # noqa: E402

DIGESTS = {
    "render": (render_digest.digest, "a763bd5a2abb25c44cb24f8166e9c22fae1bd8071238b981845a9ab5d72a8886"),
    "retarget": (render_digest.retarget_digest, "08d7c6e0457cd74fcef60b93b456479c63caa25e0413d84e2f2bf45e07d6babd"),
    "clip": (render_digest.clip_digest, "1098ebd9ba77adaf07c5e2f4d1d7d53328f7c9a0b1cc10b4c36d2c7e3a26d762"),
}


@pytest.mark.parametrize("name", DIGESTS)
def test_digest_is_unchanged(name):
    fn, recorded = DIGESTS[name]
    assert fn() == recorded
