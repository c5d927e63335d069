(module w-nonlinear
  (provide [f (-> integer? integer?)])
  (define (f n) (/ 100 (- (* n n) 2))))
