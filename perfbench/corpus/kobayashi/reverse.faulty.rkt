(module reverse
  (provide [main (-> (listof integer?) integer?)])
  (define (rev acc xs) (if (null? xs) acc (rev (cons (car xs) acc) (cdr xs))))
  (define (main xs) (car (rev '() xs))))
