(module intro1
  (provide [main (-> integer? integer?)])
  (define (main n) (if (zero? n) 0 (/ 100 n))))
