(module fhnhn
  (provide [main (-> integer? integer?)])
  (define (check x) (if (>= x 0) x (error "negative")))
  (define (h y) (lambda (z) (check (+ y z))))
  (define (main n) ((h n) 0)))
