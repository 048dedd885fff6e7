"""Acceptance criteria 1, 8, 9 and 10 under their own names.

Each of these criteria is one module test (two for criteria 8 and 10), so
it keeps a name here that runs that test; the checks themselves live in the
module files.  README maps all ten criteria to the tests that check them.
"""

import test_classify
import test_cli
from killingwebs.spaces import EUCLIDEAN, MINKOWSKI
from test_frames import (
    test_boost_and_reflection_map_ec6_shape_to_ec8_shape as test_acceptance_09)
from test_spaces import test_killing_space_dimensions as test_acceptance_01


def test_acceptance_08():
    """Each canonical row and 500 images of it under the connected group,
    and its images under the discrete group, get the row's class."""
    for space in (EUCLIDEAN, MINKOWSKI):
        test_classify.test_classification_is_invariant_under_the_connected_group(
            space)
    test_classify.test_classification_is_invariant_under_the_discrete_group()


def test_acceptance_10(capsys):
    """CLI determinism and the JSON round trip on all 14 canonical rows."""
    test_cli.test_determinism(capsys)
    test_cli.test_json_rationals_round_trip(capsys)
