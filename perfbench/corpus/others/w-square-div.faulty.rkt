(module w-square-div
  (provide [f (-> integer? integer?)])
  (define (f n) (/ 1 (+ 1 (* n n)))))
