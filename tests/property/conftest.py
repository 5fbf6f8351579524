"""Hypothesis profiles for the property tests.

Tier-1 runs every property on its own small example budget.  CI runs the
differential files a second time with ``--hypothesis-profile=differential-ci``;
``test_run_at_a_time.py`` and ``test_page_runs.py`` take this profile's budget
when it is loaded.
"""

from hypothesis import settings

settings.register_profile("differential-ci", max_examples=300, deadline=None)
