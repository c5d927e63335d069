(module w-square-div
  (provide [f (-> integer? integer?)])
  (define (f n) (if (zero? n) 1 (/ 1 n))))
