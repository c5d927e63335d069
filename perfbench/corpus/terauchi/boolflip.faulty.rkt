(module boolflip
  (provide [main (-> integer? integer?)])
  (define (flip b) (if b #f #t))
  (define (main n) (if (flip (> n 0)) (assert (> n 0)) 0)))
