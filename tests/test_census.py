import json

from census import BOXES, GOLDEN, census


def test_2x2_box_matches_the_golden():
    # every full-rank 2x2 matrix with entries in [-3, 3] and the duals of the
    # unimodular ones: per-basis tallies and the sha256 of the verdict list
    name = "2x2, entries in [-3, 3]"
    assert census(*BOXES[name]) == json.loads(GOLDEN.read_text())[name]
