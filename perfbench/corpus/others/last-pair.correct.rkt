(module last-pair
  (provide [last (-> (and/c (listof integer?) pair?) integer?)])
  (define (last xs)
    (if (null? (cdr xs)) (car xs) (last (cdr xs)))))
