"""Fixed-seed CLI outputs against the digests in tests/golden.json; see
tests/golden.py, which records them."""

import numpy as np

from golden import ENTRIES, load, moved


def test_fixed_seed_outputs_match_the_golden_manifest():
    manifest = load()
    stale = "re-record with: python tests/golden.py --record"
    assert [(name, tuple(e["argv"])) for name, e in manifest.items()] == list(ENTRIES), stale
    # numpy does not promise the same draws across versions, so under another
    # version a moved digest cannot tell a changed program from a changed
    # numpy: the test fails rather than skip
    recorded = sorted({e["numpy"] for e in manifest.values()})
    assert recorded == [np.__version__], f"recorded under numpy {recorded}; {stale}"
    changed = moved(manifest)
    assert not changed, "moved: " + "; ".join(changed)
