(module multk
  (provide [main (-> integer? integer? integer?)])
  (define (mult x y) (if (or (<= x 0) (<= y 0)) 0 (+ x (mult x (- y 1)))))
  (define (main x y) (if (< x 0) 0 (/ 100 x))))
