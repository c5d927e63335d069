(module hors
  (provide [main (-> integer? integer?)])
  (define (twice f x) (f (f x)))
  (define (check x) (if (>= x 0) x (error "negative")))
  (define (main n) (twice check n)))
