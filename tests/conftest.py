"""Hypothesis profiles.  `--hypothesis-profile=ci` prints the
`@reproduce_failure` blob of a failing draw, so that the draw can be
replayed exactly; example counts, deadlines and seeds stay the tests' own.
"""

from hypothesis import settings

settings.register_profile("ci", print_blob=True)
