(module sumt
  (provide [main (-> integer? integer?)])
  (define (sum n) (if (<= n 0) 0 (+ n (sum (- n 1)))))
  (define (main n) (begin (assert (> (sum n) 0)) 0)))
