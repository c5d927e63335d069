(module w-nonlinear
  (provide [f (-> integer? integer?)])
  (define (f n) (+ (* n n) 1)))
