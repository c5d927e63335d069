(module intro2
  (provide [main (-> integer? integer?)])
  (define (main n) (/ 100 (+ 1 (if (< n 0) (- 0 n) n)))))
