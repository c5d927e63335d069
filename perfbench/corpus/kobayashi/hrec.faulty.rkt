(module hrec
  (provide [main (-> integer? integer?)])
  (define (check x) (if (>= x 0) x (error "negative")))
  (define (walk n) (if (<= n 0) (check n) (walk (- n 1))))
  (define (main n) (walk n)))
