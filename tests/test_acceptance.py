"""Acceptance suite: the nine pinned criteria, one test per criterion.

Each test prints a single summary line; tolerances are fixed here and
must not be loosened.
"""

import math
import time

import numpy as np

import momentadapt as ma


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


class TestAcceptance:
    def test_1_section7_constant_reproduction(self):
        """Criterion 1: the worked constants reproduce deterministically."""
        t0 = time.time()
        v = ma.section7_values()
        checks = [
            abs(v["moment_coefficient"] - 84.6) <= 0.5,
            abs(v["sampling_coefficient"] - 513.0) <= 2.0,
            abs(v["moment_threshold"] - 2.3e-5) / 2.3e-5 <= 0.05,
            abs(v["minimal_k"] - 6.3e9) / 6.3e9 <= 0.02,
            abs(v["vc_term"] - 2.95e-4) / 2.95e-4 <= 0.02,
            0.0140 <= v["sampling_coefficient"] * math.sqrt(5.0 / 6.3e9) <= 0.0150,
        ]
        elapsed = time.time() - t0
        _report(
            "criterion 1 (constants)",
            all(checks) and elapsed < 1.0,
            f"sqrt(2eC)={v['moment_coefficient']:.2f}, "
            f"sqrt(8Cm/delta)={v['sampling_coefficient']:.1f}, "
            f"threshold={v['moment_threshold']:.3e}, min k={v['minimal_k']:.3e}, "
            f"vc={v['vc_term']:.3e}, {elapsed:.2f}s",
        )

    def test_2_basis_exactness(self):
        """Criterion 2: Gram identity at 1e-10 and exact printed coefficients."""
        basis = ma.build_legendre_basis(5)
        gram_err = float(np.max(np.abs(basis.gram_matrix() - np.eye(6))))
        printed = {
            1: [-1, 2],
            2: [1, -6, 6],
            3: [-1, 12, -30, 20],
            4: [1, -20, 90, -140, 70],
            5: [-1, 30, -210, 560, -630, 252],
        }
        exact = True
        for n, ints in printed.items():
            scale = math.sqrt(2 * n + 1)
            expected = np.zeros(6)
            expected[: n + 1] = scale * np.array(ints, dtype=float)
            exact = exact and bool(np.array_equal(basis.coeffs[n], expected))
        _report(
            "criterion 2 (basis)",
            gram_err <= 1e-10 and exact,
            f"gram error {gram_err:.2e}, printed coefficients exact: {exact}",
        )

    def test_3_maxent_correctness(self):
        """Criterion 3: round trips, truncated normal, entropy dominance,
        closed-form KL; under 30 s."""
        t0 = time.time()
        rng = np.random.default_rng(0)

        worst_lam = 0.0
        for _ in range(50):
            m = int(rng.integers(2, 6))
            basis = ma.make_tensor_basis(m, 1)
            lam = rng.uniform(-0.5, 0.5, m)
            p = ma.ExpFamilyDensity(basis=basis, lam=lam)
            fit = ma.fit_maxent(ma.moments(p, basis))
            worst_lam = max(worst_lam, float(np.max(np.abs(fit.density.lam - lam))))

        tn = ma.make_truncated_normal(0.45, 0.15)
        tn_l1 = ma.l1_distance(
            tn, ma.fit_maxent(ma.moments(tn, ma.make_tensor_basis(2, 1))).density
        )

        basis2 = ma.make_tensor_basis(2, 1)
        test_densities = [
            ma.uniform_density(1),
            tn,
            ma.make_truncated_normal(0.3, 0.1),
            ma.ExpFamilyDensity(
                basis=ma.make_tensor_basis(4, 1), lam=np.array([0.3, -0.2, 0.1, 0.05])
            ),
        ]
        dominance = all(
            ma.maxent_entropy(p, basis2) >= ma.entropy(p) - 1e-8
            for p in test_densities
        )

        worst_kl = 0.0
        basis3 = ma.make_tensor_basis(3, 1)
        for _ in range(50):
            p = ma.ExpFamilyDensity(basis=basis3, lam=rng.uniform(-0.4, 0.4, 3))
            q = ma.ExpFamilyDensity(basis=basis3, lam=rng.uniform(-0.4, 0.4, 3))
            worst_kl = max(
                worst_kl,
                abs(ma.kl_expfam_closed_form(p, q) - ma.kl_divergence(p, q)),
            )
        elapsed = time.time() - t0
        _report(
            "criterion 3 (maxent)",
            worst_lam <= 1e-7
            and tn_l1 <= 1e-6
            and dominance
            and worst_kl <= 1e-7
            and elapsed < 30.0,
            f"lambda err {worst_lam:.2e}, truncnorm L1 {tn_l1:.2e}, "
            f"dominance {dominance}, KL err {worst_kl:.2e}, {elapsed:.1f}s",
        )

    def test_4_lemma1_equality(self):
        """Criterion 4: worst-case labeling achieves half the L1 distance."""
        rng = np.random.default_rng(1)
        basis = ma.make_tensor_basis(2, 1)
        worst_eq = 0.0
        worst_excess = -np.inf
        for _ in range(20):
            p = ma.ExpFamilyDensity(basis=basis, lam=rng.uniform(-0.6, 0.6, 2))
            q = ma.ExpFamilyDensity(basis=basis, lam=rng.uniform(-0.6, 0.6, 2))
            f = ma.threshold_classifier(0, float(rng.random()))
            _, gap = ma.worst_case_labeling(f, p, q)
            half_l1 = 0.5 * ma.l1_distance(p, q)
            worst_eq = max(worst_eq, abs(gap - half_l1))
            from momentadapt.metrics import Labeling, labeling_gap

            for _ in range(10):
                t = float(rng.random())
                soft = float(rng.random())
                l = Labeling(
                    fn=lambda pts, t=t, soft=soft: soft * (pts[:, 0] > t).astype(float)
                )
                worst_excess = max(worst_excess, labeling_gap(f, l, p, q) - gap)
        _report(
            "criterion 4 (worst-case labeling)",
            worst_eq <= 1e-8 and worst_excess <= 1e-8,
            f"max |gap - L1/2| = {worst_eq:.2e}, "
            f"max excess over 200 labelings = {worst_excess:.2e}",
        )

    def test_5_theorem1_property_suite(self):
        """Criterion 5: 100 admissible pairs, zero bound violations."""
        t0 = time.time()
        record = ma.theorem1_empirical_verification(trials=100, m=3, dim=1, seed=0)
        elapsed = time.time() - t0
        ok = (
            record.summary["accepted"] >= 100
            and record.summary["violations"] == 0
            and elapsed < 120.0
        )
        _report(
            "criterion 5 (moment-to-L1 bound)",
            ok,
            f"{record.summary['accepted']} pairs, "
            f"{record.summary['violations']} violations, "
            f"min slack {record.summary['slack_min']:.2e}, {elapsed:.1f}s",
        )

    def test_6_example1_counterexample(self):
        """Criterion 6: near-disjoint truncated normals with zero entropy gap."""
        record = ma.truncated_normal_counterexample(
            sigma_grid=(0.3, 0.01), mean_gap=0.2, m=2
        )
        rows = {r["sigma"]: r for r in record.rows}
        eps_narrow = max(rows[0.01]["eps_p"], rows[0.01]["eps_q"])
        ok = (
            rows[0.01]["l1"] >= 1.99
            and eps_narrow <= 1e-7
            and rows[0.3]["l1"] < 0.6
        )
        _report(
            "criterion 6 (counterexample)",
            ok,
            f"sigma 0.01: L1={rows[0.01]['l1']:.4f}, eps={eps_narrow:.1e}; "
            f"sigma 0.3: L1={rows[0.3]['l1']:.4f}",
        )

    def test_7_sample_concentration(self):
        """Criterion 7: violation fraction and 1/k decay over the k grid."""
        t0 = time.time()
        basis = ma.make_tensor_basis(3, 1)
        p = ma.ExpFamilyDensity(basis=basis, lam=np.array([0.2, -0.1, 3e-4]))
        record = ma.sample_concentration(
            p, k_grid=(100, 1_000, 10_000, 100_000), trials=200, delta=0.2, seed=0
        )
        elapsed = time.time() - t0
        tol = 0.2 + 3.0 * math.sqrt(0.2 * 0.8 / 200)
        ok = (
            record.summary["worst_violation_fraction"] <= tol
            and abs(record.summary["slope"] + 1.0) <= 0.15
            and elapsed < 300.0
        )
        _report(
            "criterion 7 (concentration)",
            ok,
            f"worst violation fraction "
            f"{record.summary['worst_violation_fraction']:.3f} <= {tol:.3f}, "
            f"slope {record.summary['slope']:.3f}, {elapsed:.1f}s",
        )

    def test_8_independence_lemma(self):
        """Criterion 8: joint projection KL splits over dimensions."""
        rng = np.random.default_rng(2)
        basis2 = ma.make_tensor_basis(2, 2)
        basis1 = ma.make_tensor_basis(2, 1)
        worst = 0.0
        for _ in range(10):
            means = rng.uniform(0.3, 0.7, 4)
            sigmas = rng.uniform(0.1, 0.3, 4)
            p = ma.product_density(
                [
                    ma.make_truncated_normal(means[0], sigmas[0]),
                    ma.make_truncated_normal(means[1], sigmas[1]),
                ]
            )
            q = ma.product_density(
                [
                    ma.make_truncated_normal(means[2], sigmas[2]),
                    ma.make_truncated_normal(means[3], sigmas[3]),
                ]
            )
            p_star = ma.project(p, basis2).density
            q_star = ma.project(q, basis2).density
            joint = ma.kl_expfam_closed_form(p_star, q_star)
            split = 0.0
            for j in range(2):
                pj = ma.ExpFamilyDensity(basis=basis1, lam=p_star.lam_dim(j))
                qj = ma.ExpFamilyDensity(basis=basis1, lam=q_star.lam_dim(j))
                split += ma.kl_expfam_closed_form(pj, qj)
            worst = max(worst, abs(joint - split))
        _report(
            "criterion 8 (independence)",
            worst <= 1e-6,
            f"max |joint - sum of per-dim| = {worst:.2e} over 10 product pairs",
        )

    def test_9_determinism(self, tmp_path):
        """Criterion 9: identical seeds give byte-identical CSV and JSON."""
        runs = [
            ("theorem1-verify", dict(trials=5, seed=11)),
            ("sample-concentration", dict(k_grid=(100, 1000), trials=10, seed=11)),
            ("toy-adaptation", dict(seed=11)),
            ("levy-probe", dict()),
            ("truncated-normal", dict(sigma_grid=(0.3, 0.1))),
            ("section7-repro", dict()),
        ]
        drivers = {
            "theorem1-verify": ma.theorem1_empirical_verification,
            "sample-concentration": lambda **kw: ma.sample_concentration(
                ma.ExpFamilyDensity(
                    basis=ma.make_tensor_basis(3, 1), lam=np.array([0.2, -0.1, 3e-4])
                ),
                **kw,
            ),
            "toy-adaptation": ma.toy_adaptation_demo,
            "levy-probe": ma.levy_relation_probe,
            "truncated-normal": ma.truncated_normal_counterexample,
            "section7-repro": ma.section7_repro,
        }
        all_ok = True
        for name, kwargs in runs:
            a = drivers[name](**kwargs)
            b = drivers[name](**kwargs)
            d1 = tmp_path / f"{name}-a"
            d2 = tmp_path / f"{name}-b"
            ca, ja = a.write(d1)
            cb, jb = b.write(d2)
            same = (
                ca.read_bytes() == cb.read_bytes()
                and ja.read_bytes() == jb.read_bytes()
            )
            all_ok = all_ok and same
        _report(
            "criterion 9 (determinism)",
            all_ok,
            f"{len(runs)} experiments byte-identical under seed replay",
        )
