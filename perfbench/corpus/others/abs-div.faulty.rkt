(module abs-div
  (provide [f (-> integer? integer? integer?)])
  (define (abs n) (if (< n 0) (- 0 n) n))
  (define (f a b) (/ a (+ 1 b))))
