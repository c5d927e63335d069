(module intro1
  (provide [main (-> integer? integer?)])
  (define (main n) (/ 100 n)))
