(module last-pair
  (provide [last (-> (listof integer?) integer?)])
  (define (last xs)
    (if (null? (cdr xs)) (car xs) (last (cdr xs)))))
