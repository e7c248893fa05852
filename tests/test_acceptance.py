"""Acceptance battery: every structural guarantee the laboratory makes,
one test per criterion, run at the stated tolerances.

Each test prints the underlying ``[PASS|FAIL] name: metrics`` line (visible
with ``-s`` or, for failures, in the captured-output section) and asserts
the verdict, so ``pytest -v`` shows one line per criterion.

Two criteria fail by design of the underlying mathematics at desk scale,
not by implementation defect; the failure messages carry the measured
numbers:

* the critical-exponent dichotomy (criterion 2) needs the atom's
  erosion to dominate, but on the default cap schedule it grows only
  linearly in ln(1/h), by about 7.3e-4 per unit (measured 1 - p3_atom =
  0.00475 / 0.00576 / 0.00677 / 0.00780 at h = 2^-12 / 2^-14 / 2^-16 /
  2^-18), so at h = 2^-13 about 0.5 % of the atom is gone;
* in the concentrating-stability collapse (criterion 11) the solution
  norm falls like a power of ln(1/eps) with measured exponent -0.225
  (h = 2^-12, eps down to 2^-10) and -0.255 (h = 2^-16, eps down to
  2^-14); even at exponent -1/3 a 5x drop from eps = 1/8 would need
  ln(1/eps) near 260, so it is unreachable for any resolvable eps.

Both laws are measured, not derived; README gives the numbers.  The
checks run faithfully and report the honest numbers.
"""

from reduced_measures import verify


def _run(check, *args):
    res = check(*args)
    print(res.line())
    assert res.passed, res.line()


def test_01_dirac_threshold_clamp_under_refinement():
    _run(verify.check_threshold_clamp)


def test_02_critical_exponent_dichotomy():
    _run(verify.check_critical_dichotomy)


def test_03_absorption_and_diffusion_mass_bounds():
    _run(verify.check_mass_bounds)


def test_04_comparison_principle_and_contraction():
    _run(verify.check_comparison)


def test_05_truncation_march_is_monotone_and_family_invariant():
    _run(verify.check_monotone_scheme)


def test_06_reduction_calculus_identities():
    _run(verify.check_calculus)


def test_07_reducer_matches_closed_form_oracles():
    _run(verify.check_oracle_agreement)


def test_08_truncation_and_mollification_limits_agree():
    _run(verify.check_mollification_agreement)


def test_09_signed_data_reduce_by_sign_split():
    _run(verify.check_signed_split)


def test_10_laplacian_capacity_is_twice_the_h1_capacity():
    _run(verify.check_capacity_identity)


def test_11_weak_l1_stability_of_the_reduced_map():
    _run(verify.check_stability)


def test_12_inverse_maximum_principle():
    _run(verify.check_inverse_max_principle)
