//! Special functions needed by the variational Bayesian machinery.
//!
//! The variational GMM update equations (Bishop, PRML §10.2) need the
//! digamma function ψ(x) for the expected log mixing weights and log
//! precision determinants. It is implemented with a standard numeric
//! recipe: recurrence + asymptotic series. The tests check it against
//! the derivative of a Lanczos ln Γ(x).

/// Digamma function ψ(x) = d/dx ln Γ(x) for x > 0.
///
/// Uses the recurrence ψ(x) = ψ(x+1) − 1/x to push the argument above 6,
/// then the asymptotic expansion.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma defined here for x > 0, got {x}");
    let mut x = x;
    let mut result = 0.0;
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    // Asymptotic series: ln x − 1/(2x) − Σ B_2n / (2n x^{2n}).
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result += x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))));
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Natural log of the Gamma function, Lanczos approximation (g = 7,
    /// n = 9), accurate to ~1e-13 for x > 0.
    fn ln_gamma(x: f64) -> f64 {
        const COEFFS: [f64; 9] = [
            0.999_999_999_999_809_9,
            676.520_368_121_885_1,
            -1_259.139_216_722_402_8,
            771.323_428_777_653_1,
            -176.615_029_162_140_6,
            12.507_343_278_686_905,
            -0.138_571_095_265_720_12,
            9.984_369_578_019_572e-6,
            1.505_632_735_149_311_6e-7,
        ];
        if x < 0.5 {
            // Reflection formula keeps precision for small x.
            let pi = std::f64::consts::PI;
            return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
        }
        let x = x - 1.0;
        let mut acc = COEFFS[0];
        for (i, &c) in COEFFS.iter().enumerate().skip(1) {
            acc += c / (x + i as f64);
        }
        let t = x + 7.5;
        0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
    }

    #[test]
    fn ln_gamma_integers() {
        // Γ(n) = (n-1)!
        let facts = [1.0f64, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let n = (i + 1) as f64;
            assert!((ln_gamma(n) - f.ln()).abs() < 1e-10, "n={n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi).
        assert!((ln_gamma(0.5) - 0.5 * std::f64::consts::PI.ln()).abs() < 1e-10);
        // Γ(3/2) = sqrt(pi)/2.
        let expect = (std::f64::consts::PI.sqrt() / 2.0).ln();
        assert!((ln_gamma(1.5) - expect).abs() < 1e-10);
    }

    #[test]
    fn digamma_known_values() {
        let euler = 0.577_215_664_901_532_9;
        assert!((digamma(1.0) + euler).abs() < 1e-10);
        // ψ(1/2) = −γ − 2 ln 2.
        assert!((digamma(0.5) + euler + 2.0 * 2.0f64.ln()).abs() < 1e-10);
        // ψ(2) = 1 − γ.
        assert!((digamma(2.0) - (1.0 - euler)).abs() < 1e-10);
    }

    #[test]
    fn digamma_recurrence_holds() {
        for &x in &[0.3, 1.7, 4.2, 11.0, 123.4] {
            let lhs = digamma(x + 1.0);
            let rhs = digamma(x) + 1.0 / x;
            assert!((lhs - rhs).abs() < 1e-9, "x={x}");
        }
    }

    #[test]
    fn digamma_is_derivative_of_ln_gamma() {
        for &x in &[0.8, 2.5, 7.0, 30.0] {
            let h = 1e-6;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!((digamma(x) - numeric).abs() < 1e-5, "x={x}");
        }
    }

    #[test]
    #[should_panic(expected = "digamma")]
    fn digamma_rejects_nonpositive() {
        digamma(0.0);
    }
}
