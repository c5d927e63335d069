(module sum-acm
  (provide [main (-> integer? integer?)])
  (define (sum n acc) (if (<= n 0) acc (sum (- n 1) (+ acc n))))
  (define (main n) (begin (assert (> (sum n 0) 0)) 0)))
