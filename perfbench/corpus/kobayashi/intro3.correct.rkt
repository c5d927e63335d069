(module intro3
  (provide [main (-> integer? integer?)])
  (define (abs n) (if (< n 0) (- 0 n) n))
  (define (main n) (begin (assert (>= (+ (abs n) 1) 1)) 0)))
