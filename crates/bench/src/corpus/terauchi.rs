//! Ports of the Terauchi 2010 dependent-type-inference benchmarks
//! (the second Table 1 group).

use super::{BenchProgram, Group};

/// The programs of this group.
pub fn programs() -> Vec<BenchProgram> {
    vec![
        BenchProgram {
            name: "boolflip",
            group: Group::Terauchi,
            correct: r#"
(module boolflip
  (provide [main (-> integer? integer?)])
  (define (flip b) (if b #f #t))
  (define (main n) (if (flip (flip (> n 0))) (begin (assert (> n 0)) 0) 0)))
"#,
            faulty: r#"
(module boolflip
  (provide [main (-> integer? integer?)])
  (define (flip b) (if b #f #t))
  (define (main n) (if (flip (> n 0)) (begin (assert (> n 0)) 0) 0)))
"#,
            diff: "one flip too few: the assertion now runs exactly when n ≤ 0",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "mult-all",
            group: Group::Terauchi,
            correct: r#"
(module mult-all
  (provide [main (-> integer? integer? integer?)])
  (define (mult x y) (if (or (<= x 0) (<= y 0)) 0 (+ x (mult x (- y 1)))))
  (define (main x y) (begin (assert (>= 0 (mult 0 y))) 0)))
"#,
            faulty: r#"
(module mult-all
  (provide [main (-> integer? integer? integer?)])
  (define (mult x y) (if (or (<= x 0) (<= y 0)) 0 (+ x (mult x (- y 1)))))
  (define (main x y) (begin (assert (> 0 (mult 0 y))) 0)))
"#,
            diff: "the assertion demands a strictly negative product of zero",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "mult-cps",
            group: Group::Terauchi,
            correct: r#"
(module mult-cps
  (provide [main (-> integer? integer?)])
  (define (mult-k x y k) (if (or (<= x 0) (<= y 0)) (k 0) (mult-k x (- y 1) (lambda (r) (k (+ x r))))))
  (define (main n) (mult-k 0 n (lambda (r) (begin (assert (>= r 0)) r)))))
"#,
            faulty: r#"
(module mult-cps
  (provide [main (-> integer? integer?)])
  (define (mult-k x y k) (if (or (<= x 0) (<= y 0)) (k 0) (mult-k x (- y 1) (lambda (r) (k (+ x r))))))
  (define (main n) (mult-k 0 n (lambda (r) (begin (assert (> r 0)) r)))))
"#,
            diff: "the continuation now asserts a strictly positive result, but 0·n = 0",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "mult",
            group: Group::Terauchi,
            correct: r#"
(module multt
  (provide [main (-> integer? integer?)])
  (define (double x) (+ x x))
  (define (main n) (if (>= n 0) (begin (assert (>= (double n) n)) 0) 0)))
"#,
            faulty: r#"
(module multt
  (provide [main (-> integer? integer?)])
  (define (double x) (+ x x))
  (define (main n) (begin (assert (>= (double n) n)) 0)))
"#,
            diff: "the non-negativity guard was removed; doubling a negative number shrinks it",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "sum-acm",
            group: Group::Terauchi,
            correct: r#"
(module sum-acm
  (provide [main (-> integer? integer?)])
  (define (sum n acc) (if (<= n 0) acc (sum (- n 1) (+ acc n))))
  (define (main n) (begin (assert (>= (sum n 0) 0)) 0)))
"#,
            faulty: r#"
(module sum-acm
  (provide [main (-> integer? integer?)])
  (define (sum n acc) (if (<= n 0) acc (sum (- n 1) (+ acc n))))
  (define (main n) (begin (assert (> (sum n 0) 0)) 0)))
"#,
            diff: "the assertion became strict; the sum of nothing is 0",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "sum-all",
            group: Group::Terauchi,
            correct: r#"
(module sum-all
  (provide [main (-> integer? integer?)])
  (define (sum n) (if (<= n 0) 0 (+ n (sum (- n 1)))))
  (define (main n) (begin (assert (>= (sum 0) 0)) 0)))
"#,
            faulty: r#"
(module sum-all
  (provide [main (-> integer? integer?)])
  (define (sum n) (if (<= n 0) 0 (+ n (sum (- n 1)))))
  (define (main n) (begin (assert (>= n (sum 0))) 0)))
"#,
            diff: "the assertion now compares the unconstrained input against the sum",
            expected_unsolved: false,
        },
        BenchProgram {
            name: "sum",
            group: Group::Terauchi,
            correct: r#"
(module sumt
  (provide [main (-> integer? integer?)])
  (define (sum n) (if (<= n 0) 0 (+ n (sum (- n 1)))))
  (define (main n) (if (<= n 0) (begin (assert (>= (sum n) 0)) 0) 0)))
"#,
            faulty: r#"
(module sumt
  (provide [main (-> integer? integer?)])
  (define (sum n) (if (<= n 0) 0 (+ n (sum (- n 1)))))
  (define (main n) (begin (assert (> (sum n) 0)) 0)))
"#,
            diff: "the assertion is strict and runs for every input, failing at n ≤ 0",
            expected_unsolved: false,
        },
    ]
}
